// Monitor: a from-scratch implementation of Java object-lock semantics.
//
// Semantics reproduced from the Java Language Specification (2nd ed.), which
// is what the IPPS'03 paper models:
//   * the lock is reentrant (owner + recursion depth);
//   * wait() fully releases the lock regardless of depth, suspends the
//     caller on the monitor's wait set, and re-acquires the lock (restoring
//     the depth) before returning;
//   * notify() moves one waiter — chosen arbitrarily — from the wait set to
//     the entry queue; notifyAll() moves all of them;
//   * wait/notify/notifyAll without ownership throw IllegalMonitorState
//     (IllegalMonitorStateException in Java);
//   * a notify with an empty wait set is lost (no memory, unlike a
//     semaphore) — the root of the FF-T5 "missed notification" failures;
//   * spurious wakeups may occur (injectable, probability-controlled).
//
// Every state change emits the corresponding Figure-1 transition event:
//   lock request -> T1 LockRequest        lock grant -> T2 LockAcquire
//   wait         -> T3 WaitBegin          outer unlock -> T4 LockRelease
//   waiter woken -> T5 Notified
// Reentrant (inner) lock/unlock pairs emit nothing: the Figure-1 model has
// a single lock token, and the JLS releases the object lock only at the
// outermost exit.
//
// The monitor runs in both execution modes of its Runtime:
//   * Virtual — blocking is VirtualScheduler state; the wake and grant
//     policies are deterministic per seed; deadlocks are observable.
//   * Real    — blocking uses an internal std::mutex/std::condition_variable
//     pair; used for native-speed benches.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "confail/monitor/runtime.hpp"
#include "confail/sched/snapshot.hpp"

namespace confail::obs {
class Counter;
}

namespace confail::monitor {

/// How the next thread is chosen from a monitor's entry queue (lock grant)
/// and wait set (notify).  The JLS allows any choice ("arbitrary"); the
/// policies let tests pin it down or model unfair JVMs.
enum class SelectPolicy : std::uint8_t {
  Fifo,    ///< oldest first (a fair JVM)
  Lifo,    ///< newest first (a maximally unfair JVM — drives starvation)
  Random,  ///< seeded-random (the JLS "arbitrary" choice)
};

const char* selectPolicyName(SelectPolicy p);

class Monitor : public sched::StateSource {
 public:
  struct Options {
    SelectPolicy grantPolicy = SelectPolicy::Fifo;  ///< entry-queue choice
    SelectPolicy wakePolicy = SelectPolicy::Fifo;   ///< wait-set choice
    double spuriousWakeProbability = 0.0;  ///< virtual mode: per-unlock chance
  };

  Monitor(Runtime& rt, std::string name) : Monitor(rt, std::move(name), Options()) {}
  Monitor(Runtime& rt, std::string name, Options opts);
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Fingerprint contribution (virtual mode): owner, recursion depth, and
  /// the exact order of the entry queue and wait set — queue order is
  /// observable state under Fifo/Lifo policies.
  std::uint64_t stateFingerprint() const override;

  /// Snapshot payload size (virtual mode): the VirtualState copy.
  std::size_t snapshotBytes() const override;

  /// Enter the monitor (Figure 1: T1, then T2 once the lock is granted).
  /// Reentrant: a thread already owning the lock increments the depth.
  void lock();

  /// Leave the monitor.  Releases the object lock at the outermost exit
  /// (Figure 1: T4).  Throws IllegalMonitorState if not the owner.
  void unlock();

  /// Java Object.wait(): release the lock fully, join the wait set
  /// (Figure 1: T3), stay suspended until notified (T5), then re-acquire
  /// the lock (T2) and return with the original recursion depth restored.
  void wait();

  /// Java Object.notify(): wake one waiter, chosen by the wake policy.
  /// A call with an empty wait set is lost.
  void notifyOne();

  /// Java Object.notifyAll(): wake every waiter.
  void notifyAll();

  MonitorId id() const { return id_; }
  const std::string& name() const { return name_; }

  // ---- introspection (tests, detectors, deadlock reports) ------------------
  /// True if the calling thread owns the lock.
  bool heldByCurrent();
  /// Number of threads currently in the wait set.
  std::size_t waitSetSize();
  /// Number of threads queued for lock entry (virtual mode; 0 in real mode,
  /// where the entry queue is implicit in the condition variable).
  std::size_t entryQueueLength();
  /// Current recursion depth (0 when unowned).
  std::uint32_t depth();

 private:
  struct VirtualState;
  struct RealState;

  // Snapshot protocol (virtual mode): a deep copy of VirtualState.
  std::shared_ptr<const void> saveState() const override;
  void restoreState(const std::shared_ptr<const void>& payload) override;

  // Virtual-mode helpers (defined in monitor.cpp).
  void vLock(ThreadId self);
  void vUnlock(ThreadId self);
  void vWait(ThreadId self);
  void vNotify(ThreadId self, bool all);
  void vGrantNext();
  void vInjectHookWake(InjectionHooks& hooks);
  void vInjectSpuriousWakes();
  std::size_t vSelect(std::size_t size, SelectPolicy policy);

  // Real-mode helpers.
  void rLock(ThreadId self);
  void rUnlock(ThreadId self);
  void rWait(ThreadId self);
  void rNotify(ThreadId self, bool all);

  Runtime& rt_;
  std::string name_;
  MonitorId id_;
  Options opts_;
  std::unique_ptr<VirtualState> v_;
  std::unique_ptr<RealState> r_;
  // Per-monitor counters, resolved once from the runtime's metrics registry
  // at construction (null when no registry is attached — the common,
  // uninstrumented case costs one branch per operation).
  obs::Counter* contentionCounter_ = nullptr;  ///< lock attempts that blocked
  obs::Counter* waitCounter_ = nullptr;        ///< wait() calls
  obs::Counter* notifyCounter_ = nullptr;      ///< notify()/notifyAll() calls
};

/// RAII equivalent of a Java `synchronized (m) { ... }` block.
///
/// The destructor is noexcept(false): in virtual mode the unlock contains a
/// schedule point, and a thread parked there when the run is torn down must
/// unwind via ExecutionAborted — which therefore may propagate out of this
/// destructor.  That is safe: the teardown path never runs while another
/// exception is in flight (the unlock short-circuits during unwinding).
class Synchronized {
 public:
  explicit Synchronized(Monitor& m) : m_(m) { m_.lock(); }
  ~Synchronized() noexcept(false) { m_.unlock(); }

  Synchronized(const Synchronized&) = delete;
  Synchronized& operator=(const Synchronized&) = delete;

 private:
  Monitor& m_;
};

}  // namespace confail::monitor
