// InjectionHooks: the monitor layer's fault-injection seam.
//
// A Runtime may carry one InjectionHooks implementation (see
// Runtime::setInjection).  Monitors consult it at every Figure-1 transition
// point and let it *deviate* the semantics — suppress a firing (the
// failure-to-fire classes) or force one that should not happen (the
// erroneous-firing classes).  The default implementation of every hook is
// "no deviation", so an attached hooks object only perturbs the operations
// its overrides opt into, and a null pointer costs one branch per
// operation.
//
// The seam is virtual-mode only: deviations must be deterministic under
// the virtual scheduler so the explorer can enumerate and replay them
// (confail::inject::Injector is the production implementation).  Real-mode
// monitors ignore the hooks entirely.
//
// Contract for implementations:
//   * Hooks are invoked from logical threads while the scheduler runs, so
//     they may not block or yield; they decide and return.
//   * Any internal state that advances when a hook fires is shared state
//     for exploration purposes: implementations must register as a
//     sched::StateSource (so the state is hashed and snapshotted) and note
//     a scheduler access when they mutate (Injector does both), or
//     fingerprint pruning, sleep sets and incremental exploration become
//     unsound.
#pragma once

#include <cstddef>
#include <cstdint>

#include "confail/events/event.hpp"

namespace confail::monitor {

class InjectionHooks {
 public:
  /// Deviation applied to a lock() call (vLock entry, non-reentrant case).
  enum class LockAction : std::uint8_t {
    Proceed,  ///< normal semantics
    Elide,    ///< FF-T1: skip the acquire — the thread runs unsynchronized
    Starve,   ///< FF-T2: emit the request, then suspend forever (no grant)
  };

  /// Wake injected at a lock release while the wait set is non-empty.
  enum class WakeInjection : std::uint8_t {
    None,
    Spurious,  ///< EF-T3: wake a waiter with no notification (SpuriousWake)
    Phantom,   ///< EF-T5: wake a waiter as if notified (Notified, no call)
  };

  virtual ~InjectionHooks() = default;

  /// Consulted at every non-reentrant lock() call.
  virtual LockAction onLock(events::MonitorId, events::ThreadId) {
    return LockAction::Proceed;
  }

  /// Consulted when a thread unlocks a monitor it does not own — return
  /// true to silently swallow the call (the matching acquire was elided or
  /// force-released by this hooks object) instead of throwing
  /// IllegalMonitorState.
  virtual bool onElidedUnlock(events::MonitorId, events::ThreadId) {
    return false;
  }

  /// Consulted at the outermost unlock(), before T4 fires.  Returning true
  /// leaks the lock: no release event, ownership kept (FF-T4).
  virtual bool leakUnlock(events::MonitorId, events::ThreadId) {
    return false;
  }

  /// Consulted right after a lock grant returns to the acquiring thread.
  /// Returning true forces an immediate release (T4 fires, ownership
  /// drops) while the thread continues as if still inside the monitor
  /// (EF-T4).  The thread's eventually-matching unlock() arrives as an
  /// onElidedUnlock() consultation.
  virtual bool releaseEarly(events::MonitorId, events::ThreadId) {
    return false;
  }

  /// Consulted at every wait() call, after the ownership check.  Returning
  /// true skips the wait entirely — no T3, the lock stays held (FF-T3).
  virtual bool suppressWait(events::MonitorId, events::ThreadId) {
    return false;
  }

  /// Consulted at every notify()/notifyAll() call, after the ownership
  /// check.  Returning true loses the notification — no event, no wake
  /// (FF-T5).
  virtual bool suppressNotify(events::MonitorId, events::ThreadId,
                              bool /*all*/) {
    return false;
  }

  /// Consulted when the entry queue is non-empty and a grant is due.
  /// Return true and set `pick` (an index into the entry queue, oldest
  /// first) to override the configured grant policy — index size-1 is the
  /// newest entry, i.e. a barging grant (EF-T2).
  virtual bool overrideGrant(events::MonitorId, std::size_t /*queueSize*/,
                             std::size_t& /*pick*/) {
    return false;
  }

  /// Consulted at every outermost unlock while waiters exist.  The monitor
  /// performs the returned wake itself (moving the chosen waiter to the
  /// entry queue exactly like the probability-based spurious-wake path).
  virtual WakeInjection injectWake(events::MonitorId,
                                   std::size_t /*waitSetSize*/) {
    return WakeInjection::None;
  }
};

}  // namespace confail::monitor
