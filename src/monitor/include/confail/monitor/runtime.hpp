// Runtime: the execution context shared by all instrumented objects.
//
// A Runtime binds together
//   * the execution mode — Virtual (deterministic, scheduler-controlled) or
//     Real (native std::thread preemption),
//   * the Trace into which every instrumented operation records an Event,
//   * id allocation and naming for monitors / shared variables / methods,
//   * per-thread bookkeeping (component-method stacks for CoFG coverage),
//   * a seeded RNG for all policy decisions (wake selection, noise).
//
// Components (confail::components) take a Runtime& and work unchanged in
// both modes; tests and the explorer use Virtual mode, throughput benches
// use Real mode.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/rng.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::monitor {

class InjectionHooks;

using events::EventKind;
using events::MethodId;
using events::MonitorId;
using events::ThreadId;
using events::VarId;

class Runtime : public sched::StateSource {
 public:
  enum class Mode { Real, Virtual };

  /// What a virtual-mode runtime puts in its trace.  Names are registered
  /// either way; `Discard` drops every event (emit still feeds the step
  /// footprints).  A plain explored run has no reader for its events, and
  /// recording them, then copying them into every checkpoint, would be a
  /// large share of its cost (see scenarios::ScenarioState).
  enum class Events { Record, Discard };

  /// Virtual-mode runtime: logical threads run under `sched`.  When
  /// `metrics` is non-null, monitors constructed on this runtime register
  /// per-monitor contention / wait / notify counters on it (the registry
  /// must outlive the monitors; not owned).
  Runtime(events::Trace& trace, sched::VirtualScheduler& sched,
          std::uint64_t seed, obs::Registry* metrics = nullptr,
          Events events = Events::Record);

  /// Real-mode runtime: threads are plain std::threads.
  Runtime(events::Trace& trace, std::uint64_t seed,
          obs::Registry* metrics = nullptr);

  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Fingerprint contribution (virtual mode): the policy-RNG stream
  /// position and the id-registration counters.  Two runs in equal states
  /// must have consumed the same policy draws, or their futures diverge.
  std::uint64_t stateFingerprint() const override;

  /// Snapshot payload size (virtual mode): RNG + counters + method stacks.
  std::size_t snapshotBytes() const override;

  Mode mode() const { return mode_; }
  bool isVirtual() const { return mode_ == Mode::Virtual; }
  events::Trace& trace() { return trace_; }

  /// The metrics registry passed at construction (null when
  /// uninstrumented).  Instrumented wiring is normally owned by
  /// inject::ExploreConfig — see docs/injection.md ("Migration").
  obs::Registry* metrics() const { return metrics_; }

  /// Attach a fault-injection hooks object (virtual mode; see
  /// confail/monitor/injection_hooks.hpp).  Monitors consult the current
  /// pointer at every operation, so this may be called any time before the
  /// run starts.  Null detaches; the hooks must outlive the monitors'
  /// operations.  Not owned.
  void setInjection(InjectionHooks* hooks) { injection_ = hooks; }
  InjectionHooks* injection() const { return injection_; }

  /// The underlying scheduler.  UsageError in real mode.
  sched::VirtualScheduler& scheduler();

  /// Spawn a logical thread.  In virtual mode the thread does not start
  /// until VirtualScheduler::run(); in real mode it starts immediately.
  ThreadId spawn(std::string name, std::function<void()> fn);

  /// Real mode: join all spawned threads.  Virtual mode: no-op (the
  /// scheduler's run() owns thread lifetime).
  void joinAll();

  /// Java Thread.join: block the calling logical thread until `t`
  /// finishes.  Virtual mode only (real mode joins all at once via
  /// joinAll); throws UsageError otherwise.
  void join(ThreadId t);

  /// Logical id of the calling thread (kNoThread on an unregistered
  /// controller thread in virtual mode; in real mode the caller is
  /// auto-registered on first use so main() can drive components directly).
  ThreadId currentThread();

  /// A schedule point: in virtual mode, hands control to the strategy;
  /// in real mode, optionally injects scheduling noise (see setNoise).
  void schedulePoint();

  /// Real-mode noise injection: at each schedule point, with probability p,
  /// call std::this_thread::yield() to shake out interleavings (ConTest
  /// style).  Ignored in virtual mode.
  void setNoise(double probability) { noiseProb_ = probability; }

  // ---- id registration -----------------------------------------------------
  MonitorId registerMonitor(const std::string& name);
  VarId registerVar(const std::string& name);
  MethodId registerMethod(const std::string& name);

  // ---- event emission --------------------------------------------------------
  /// Record an event on behalf of the calling thread.  The innermost
  /// component method of that thread is attached automatically.  Returns
  /// the event's sequence number (0 when the runtime discards events).
  std::uint64_t emit(EventKind kind, MonitorId monitor, std::uint64_t aux,
                     bool flag = false);

  /// Record an event on behalf of another thread (e.g. a notifier recording
  /// the Notified transition of the woken waiter).
  std::uint64_t emitFor(ThreadId thread, EventKind kind, MonitorId monitor,
                        std::uint64_t aux, bool flag = false);

  // ---- per-thread component-method stack (CoFG coverage) ---------------------
  void pushMethod(MethodId m);
  void popMethod();
  MethodId currentMethodOf(ThreadId t);

  // ---- deterministic policy randomness ---------------------------------------
  std::uint64_t rngBelow(std::uint64_t bound);
  bool rngChance(double p);

 private:
  // Snapshot protocol (virtual mode): policy-RNG stream, id counters, the
  // per-thread method stacks, and the recorded events (restore puts the
  // checkpointed events back).  Saves run on the controller thread with
  // every logical thread suspended, so no locking is needed.
  std::shared_ptr<const void> saveState() const override;
  void restoreState(const std::shared_ptr<const void>& payload) override;

  ThreadId allocateThread(const std::string& name);
  /// Map an emitted event onto the current step's footprint (virtual mode).
  void noteFootprint(EventKind kind, MonitorId monitorId, std::uint64_t aux);

  Mode mode_;
  events::Trace& trace_;
  sched::VirtualScheduler* sched_ = nullptr;  // virtual mode only
  obs::Registry* metrics_ = nullptr;          // optional, not owned
  bool recordEvents_ = true;                  // false: Events::Discard
  InjectionHooks* injection_ = nullptr;       // optional, not owned

  std::mutex mu_;  // guards everything below in real mode
  Xoshiro256 rng_;
  std::uint32_t nextMonitorId_ = 0;
  std::uint32_t nextVarId_ = 0;
  std::uint32_t nextMethodId_ = 0;
  std::uint32_t nextThreadId_ = 0;                  // real mode
  std::vector<std::thread> realThreads_;            // real mode
  std::vector<std::vector<MethodId>> methodStacks_; // indexed by ThreadId
  double noiseProb_ = 0.0;
};

/// RAII marker for a component method: emits MethodEnter/MethodExit and
/// maintains the per-thread method stack used to attribute events to CoFG
/// nodes.  Declare one at the top of every public component method.
class MethodScope {
 public:
  MethodScope(Runtime& rt, MethodId method);
  ~MethodScope();

  MethodScope(const MethodScope&) = delete;
  MethodScope& operator=(const MethodScope&) = delete;

 private:
  Runtime& rt_;
  MethodId method_;
};

}  // namespace confail::monitor
