// Event records: the common currency of the library.
//
// Every instrumented operation (monitor transitions T1–T5, notify calls,
// shared-variable accesses, method boundaries, clock operations) emits one
// Event into a Trace.  The same trace is consumed by
//   * the failure detectors (confail::detect),
//   * the Petri-net replay validator (confail::petri), and
//   * Concurrency-Flow-Graph coverage tracking (confail::cofg),
// which is exactly the three views the IPPS'03 paper connects: the model,
// the failure classification, and the coverage criterion.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace confail::events {

/// Logical thread identifier.  Assigned densely from 0 by the Runtime.
using ThreadId = std::uint32_t;
inline constexpr ThreadId kNoThread = 0xffffffffu;

/// Identifier of an instrumented Monitor instance.
using MonitorId = std::uint32_t;
inline constexpr MonitorId kNoMonitor = 0xffffffffu;

/// Identifier of an instrumented shared variable.
using VarId = std::uint32_t;
inline constexpr VarId kNoVar = 0xffffffffu;

/// Identifier of a component method (for CoFG coverage mapping).
using MethodId = std::uint32_t;
inline constexpr MethodId kNoMethod = 0xffffffffu;

/// The kind of an event.  The first five correspond one-to-one with the
/// transitions of the paper's Figure 1 Petri-net model.
enum class EventKind : std::uint8_t {
  // --- Figure 1 transitions ------------------------------------------------
  LockRequest,   ///< T1: thread requests the object lock (enters place B).
  LockAcquire,   ///< T2: thread is granted the lock (enters place C).
  WaitBegin,     ///< T3: thread calls wait(); releases lock, enters place D.
  LockRelease,   ///< T4: thread leaves the synchronized block (back to A).
  Notified,      ///< T5: a *waiting* thread is woken (moves D -> B).
  // --- Notification calls (the dashed arc feeding T5) ----------------------
  NotifyCall,    ///< notify() executed; aux = number of waiters at the time.
  NotifyAllCall, ///< notifyAll() executed; aux = number of waiters.
  SpuriousWake,  ///< injected spurious wakeup of a waiter (no notify).
  // --- Shared data accesses (for race detection, FF-T1) --------------------
  Read,          ///< read of SharedVar; aux = VarId.
  Write,         ///< write of SharedVar; aux = VarId.
  // --- Thread lifecycle -----------------------------------------------------
  ThreadSpawn,   ///< thread creates another; aux = child ThreadId.
  ThreadStart,   ///< first event of a logical thread.
  ThreadEnd,     ///< last event of a logical thread.
  // --- Method boundaries (CoFG coverage) ------------------------------------
  MethodEnter,   ///< component method entered; aux = MethodId.
  MethodExit,    ///< component method exited; aux = MethodId.
  GuardEval,     ///< wait-loop guard evaluated; aux = MethodId, value in flag.
  // --- Abstract clock --------------------------------------------------------
  ClockAwait,    ///< thread blocks until logical time aux.
  ClockTick,     ///< clock advanced to logical time aux.
};

/// Human-readable name of an event kind (stable; the JSONL "kind" value).
const char* kindName(EventKind k);

/// The kind kindName() spells `name`: false when `name` names no kind.
bool tryKindFromName(std::string_view name, EventKind& out);

/// True if this kind corresponds to a Figure-1 Petri-net transition.
bool isModelTransition(EventKind k);

/// One instrumented operation.
struct Event {
  std::uint64_t seq = 0;              ///< global logical timestamp (total order).
  ThreadId thread = kNoThread;        ///< logical thread that performed it.
  EventKind kind = EventKind::ThreadStart;
  MonitorId monitor = kNoMonitor;     ///< monitor involved, if any.
  std::uint64_t aux = 0;              ///< kind-specific payload (see EventKind).
  MethodId method = kNoMethod;        ///< innermost component method, if any.
  bool flag = false;                  ///< kind-specific boolean (GuardEval value).

  bool operator==(const Event&) const = default;
};

}  // namespace confail::events
