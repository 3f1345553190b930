// Trace capture: an append-only, thread-safe log of Events plus the name
// tables needed to render it (thread, monitor, variable and method names).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "confail/events/event.hpp"
#include "confail/support/id_table.hpp"

namespace confail::events {

/// Sink interface: online consumers (detectors running while the program
/// executes) implement this and are registered on the Trace.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Called for every recorded event, in global seq order.  Called with the
  /// trace lock held in real mode; implementations must not re-enter Trace.
  virtual void onEvent(const Event& e) = 0;
};

/// Append-only event log with registration of human-readable names.
///
/// In virtual execution mode, at most one logical thread runs at a time, so
/// contention is nil; in real mode a mutex serializes appends and assigns
/// the global sequence numbers.
class Trace {
 public:
  Trace() = default;

  // Not copyable (sinks hold references).  Movable so factory functions
  // can return by value; must not be moved while other threads are
  // recording.
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;
  Trace(Trace&& other) noexcept;
  Trace& operator=(Trace&&) = delete;

  /// Record an event.  Assigns e.seq and forwards to registered sinks.
  /// Returns the assigned sequence number.
  std::uint64_t record(Event e);

  /// Register an online sink.  Not thread-safe with concurrent record();
  /// register sinks before starting threads.
  void addSink(EventSink* sink);

  /// Name registration; a later name for the same id replaces the earlier
  /// one.  Runtime ids are small and dense, but a trace loaded from a file
  /// may name any id: a far one costs one table node (see IdTable).
  void nameThread(ThreadId id, std::string name);
  void nameMonitor(MonitorId id, std::string name);
  void nameVar(VarId id, std::string name);
  void nameMethod(MethodId id, std::string name);

  std::string threadName(ThreadId id) const;
  std::string monitorName(MonitorId id) const;
  std::string varName(VarId id) const;
  std::string methodName(MethodId id) const;

  /// Reverse lookups by registered name.  Return the k-No* sentinel when no
  /// id was registered under `name` (first match wins on duplicates).
  MethodId findMethod(const std::string& name) const;
  MonitorId findMonitor(const std::string& name) const;

  /// Snapshot of all events recorded so far (copy; safe to inspect while
  /// execution continues, though normally read after the run completes).
  std::vector<Event> events() const;

  /// Number of events recorded.
  std::size_t size() const;

  /// Drop all recorded events (name tables are kept).
  void clear();

  /// Keep only the first `n` events, rewinding the sequence counter so the
  /// next record() continues from seq n.  Used by incremental exploration
  /// to roll the trace back to a checkpoint; requires the append-only
  /// invariant (seq == index) that record() maintains.
  void truncate(std::size_t n);

  /// Replace the event log with a checkpointed image, rewinding the
  /// sequence counter to continue after it.  Unlike truncate(), this is
  /// valid when runs restore checkpoints in arbitrary (non-stack) order:
  /// after a sibling run rewound shallower and appended its own events,
  /// the first n slots no longer hold the checkpoint's prefix, so the
  /// content itself must be restored.  Sinks are not replayed (they are a
  /// real-mode facility; virtual-mode analyses read the finished trace).
  void restore(const std::vector<Event>& events);

  /// Events of a single thread, in order.
  std::vector<Event> threadProjection(ThreadId id) const;

  /// Events touching a single monitor, in order.
  std::vector<Event> monitorProjection(MonitorId id) const;

  /// Pretty-print events (using names) through `emit`, one line at a time.
  void render(const std::function<void(const std::string&)>& emit) const;

 private:
  using NameTable = IdTable<std::string>;  // empty = unnamed

  static std::string lookup(const NameTable& table, std::uint32_t id,
                            const char* prefix);
  static std::uint32_t find(const NameTable& table, const std::string& name,
                            std::uint32_t none);

  mutable std::mutex mu_;
  std::uint64_t nextSeq_ = 0;
  std::vector<Event> events_;
  std::vector<EventSink*> sinks_;
  NameTable threadNames_;
  NameTable monitorNames_;
  NameTable varNames_;
  NameTable methodNames_;
};

}  // namespace confail::events
