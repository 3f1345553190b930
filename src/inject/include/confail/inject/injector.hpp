// Injector: the production InjectionHooks implementation — executes one
// InjectionPlan against one Runtime.
//
// Lifetime: construct one fresh Injector per run, after the Runtime exists
// and before any thread runs (ExploreConfig does this through the scenario
// Instruments::decorate hook).  The constructor attaches itself to the
// Runtime and registers as a state source with the scheduler; the
// destructor reverses both, and must therefore run before the Runtime dies.
//
// Determinism: the only mutable state is the occasion counter and the
// pending-unbalanced-unlock ledger.  Both are advanced exclusively at
// schedule-point-adjacent monitor operations, are hashed into the state
// fingerprint, and every mutation is reported to the scheduler as a write
// access — so fingerprint pruning and sleep-set reduction stay sound and
// the same plan deviates the same operation on every replay of a prefix.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "confail/inject/plan.hpp"
#include "confail/monitor/injection_hooks.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/snapshot.hpp"

namespace confail::inject {

class Injector final : public monitor::InjectionHooks,
                       public sched::StateSource {
 public:
  /// Attaches to `rt` (virtual mode only) and registers with its scheduler.
  /// Throws UsageError if the plan's class is not injectable or the runtime
  /// is in real mode.
  Injector(monitor::Runtime& rt, const InjectionPlan& plan);
  ~Injector() override;

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  const InjectionPlan& plan() const { return plan_; }

  /// Number of occasions actually deviated so far in this run.
  std::uint64_t deviationsApplied() const { return applied_; }

  std::uint64_t stateFingerprint() const override;

  /// Snapshot payload size: counters plus the pending-unlock ledger.
  std::size_t snapshotBytes() const override;

  // ---- InjectionHooks ------------------------------------------------------
  LockAction onLock(events::MonitorId m, events::ThreadId t) override;
  bool onElidedUnlock(events::MonitorId m, events::ThreadId t) override;
  bool leakUnlock(events::MonitorId m, events::ThreadId t) override;
  bool releaseEarly(events::MonitorId m, events::ThreadId t) override;
  bool suppressWait(events::MonitorId m, events::ThreadId t) override;
  bool suppressNotify(events::MonitorId m, events::ThreadId t,
                      bool all) override;
  bool overrideGrant(events::MonitorId m, std::size_t queueSize,
                     std::size_t& pick) override;
  WakeInjection injectWake(events::MonitorId m,
                           std::size_t waitSetSize) override;

 private:
  // Snapshot protocol: occasion/applied counters and the pending-unlock
  // ledger — exactly the state hashed by stateFingerprint().
  std::shared_ptr<const void> saveState() const override;
  void restoreState(const std::shared_ptr<const void>& payload) override;

  bool siteMatches(events::MonitorId m) const;
  bool victimMatches(events::ThreadId t) const;
  /// Count one applicable occasion and decide whether it deviates.
  bool fire(events::MonitorId m, events::ThreadId t, bool checkVictim);
  /// Report a state mutation to the scheduler (sleep-set soundness).
  void noteMutation();

  monitor::Runtime& rt_;
  InjectionPlan plan_;
  std::uint64_t occasions_ = 0;
  std::uint64_t applied_ = 0;
  /// (monitor, thread) pairs whose next unowned unlock() must be swallowed:
  /// incremented by an elided acquire (FF-T1) or a premature release
  /// (EF-T4), consumed by onElidedUnlock.
  std::map<std::pair<events::MonitorId, events::ThreadId>, std::uint32_t>
      pendingUnlocks_;
};

}  // namespace confail::inject
