// VirtualScheduler: deterministic cooperative execution of logical threads.
//
// Architecture (the standard model-checker / CHESS design):
//   * Every logical thread is backed by a real std::thread, but all threads
//     are gated on per-thread binary semaphores so that EXACTLY ONE logical
//     thread executes at any moment.  The thread that calls run() acts as
//     the controller.
//   * At every instrumented operation (schedule point), the running thread
//     hands control back to the controller, which consults the Strategy to
//     pick the next runnable thread.
//   * Blocking (monitor entry queues, wait sets, abstract-clock awaits) is
//     scheduler state, never native blocking.  A global deadlock is
//     therefore *observable* — the controller sees no runnable thread —
//     instead of hanging the process.  This is what makes the paper's
//     "check call completion time" technique and the failure classes FF-T2,
//     FF-T4 and FF-T5 mechanically detectable.
//
// Because only one logical thread runs at a time and control transfer goes
// through semaphore release/acquire pairs, all scheduler state is free of
// data races by construction (strict alternation + synchronizes-with).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "confail/sched/fingerprint.hpp"
#include "confail/sched/snapshot.hpp"
#include "confail/sched/strategy.hpp"
#include "confail/support/assert.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::sched {

class IncrementalRunner;

namespace detail {
struct Fiber;    // stack-switched fiber backing a logical thread (.cpp)
struct FiberRt;  // per-scheduler controller stack pointer (.cpp)
struct StackImage;  // frozen fiber stack, saved registers included (.cpp)
}  // namespace detail

/// True when this build can back logical threads with snapshot-capable
/// fibers: Linux on x86-64, sanitizers off.  A fiber switch pushes the
/// callee-saved registers and FP control words onto the outgoing stack and
/// pops the incoming one's (fiber_switch_x86_64.S); other targets, aarch64
/// included, have no switch yet.  When false, incremental exploration
/// silently degrades to prefix replay.
bool fibersSupported() noexcept;

/// Why a logical thread is not runnable.
enum class BlockKind : std::uint8_t {
  None,         ///< not blocked
  LockAcquire,  ///< in a monitor entry queue (Figure 1 place B, no token in E)
  CondWait,     ///< in a monitor wait set (Figure 1 place D)
  ClockAwait,   ///< awaiting an abstract-clock time
  Join,         ///< joining another logical thread
  Custom,       ///< component-defined blocking
};

const char* blockKindName(BlockKind k);

/// How a run ended.
enum class Outcome : std::uint8_t {
  Completed,  ///< all logical threads finished
  Deadlock,   ///< unfinished threads exist but none is runnable
  StepLimit,  ///< the step budget was exhausted (livelock / runaway loop)
  Exception,  ///< a logical thread threw an uncaught exception
};

const char* outcomeName(Outcome o);

/// A thread stuck at the end of a deadlocked run.
struct BlockedThreadInfo {
  ThreadId id = events::kNoThread;
  std::string name;
  BlockKind kind = BlockKind::None;
  std::uint64_t resource = 0;  ///< monitor id / clock time / joined thread
};

/// The runnable set at each decision point of a run, stored flat: every
/// set's ids back to back in one vector and each set's end offset in
/// another, so recording a step appends to two vectors instead of
/// allocating one per step, and a reused instance stops allocating once
/// its capacity covers the longest run.
class ChoiceSets {
 public:
  std::size_t size() const { return ends_.size(); }

  /// The runnable set at decision point `i` (ascending thread ids).
  std::span<const ThreadId> operator[](std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return {ids_.data() + begin, ends_[i] - begin};
  }

  void push_back(std::span<const ThreadId> set) {
    ids_.insert(ids_.end(), set.begin(), set.end());
    ends_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }

  void reserve(std::size_t sets) { ends_.reserve(sets); }

  /// Drop every set, keeping the capacity.
  void clear() {
    ids_.clear();
    ends_.clear();
  }

  /// Approximate heap bytes held, for the snapshot-memory budget.
  std::size_t bytes() const {
    return ids_.size() * sizeof(ThreadId) +
           ends_.size() * sizeof(std::uint32_t);
  }

 private:
  std::vector<ThreadId> ids_;
  std::vector<std::uint32_t> ends_;  ///< ids_ end offset of each set
};

/// Result of VirtualScheduler::run().
struct RunResult {
  Outcome outcome = Outcome::Completed;
  std::uint64_t steps = 0;
  /// The thread chosen at each decision point — a complete, replayable
  /// schedule (feed to PrefixReplayStrategy).
  std::vector<ThreadId> schedule;
  /// The runnable set at each decision point (the explorer branches on
  /// the points where this has more than one element).
  ChoiceSets choiceSets;
  /// Populated when outcome == Deadlock.
  std::vector<BlockedThreadInfo> blocked;
  /// Populated when outcome == Exception.
  std::string errorMessage;
  /// With Options::captureFingerprints: the state fingerprint at each
  /// decision point, aligned with `schedule` (fingerprints[i] hashes the
  /// state in which schedule[i] was chosen).  The explorer's dedup table
  /// keys on (depth, fingerprint) pairs from here.
  std::vector<std::uint64_t> fingerprints;
  /// With Options::captureState: what each step touched (the segment from
  /// decision point i to i+1, executed by schedule[i]).  Consumed by the
  /// explorer's adjacent-step independence (sleep-set) check.
  std::vector<Footprint> stepFootprints;
  /// True if the run was cut short because every runnable thread was in
  /// the DPOR sleep set (see Options::sleepSet): the executed portion is a
  /// redundant prefix, not a leaf of the reduced tree.  outcome is
  /// Completed in that case.
  bool sleepPruned = false;

  bool ok() const { return outcome == Outcome::Completed; }

  /// Back to a default-constructed result, keeping every buffer's
  /// capacity (the incremental runner reuses one result per worker).
  void clear() {
    outcome = Outcome::Completed;
    steps = 0;
    schedule.clear();
    choiceSets.clear();
    blocked.clear();
    errorMessage.clear();
    fingerprints.clear();
    stepFootprints.clear();
    sleepPruned = false;
  }
};

/// Consulted by the controller when no thread is runnable, before declaring
/// deadlock.  The abstract clock registers one of these to auto-advance
/// logical time (discrete-event style).  Returns true if it made at least
/// one thread runnable.
class IdleHandler {
 public:
  virtual ~IdleHandler() = default;
  virtual bool onIdle() = 0;
};

class VirtualScheduler {
 public:
  struct Options {
    /// Abort the run after this many decision points (livelock guard).
    std::uint64_t maxSteps = 200000;
    /// Record per-step footprints into the RunResult (see
    /// RunResult::stepFootprints).  Off by default: only the reducing
    /// explorer and witness canonicalization read them.
    bool captureState = false;
    /// Internal to the explorer: also hash the state at every decision
    /// point into RunResult::fingerprints.  Set only under fingerprint
    /// pruning, the one reader of those hashes.
    bool captureFingerprints = false;
    /// Optional metrics sink: run() adds its step count, context-switch
    /// count (decision points where the pick changed threads) and run tally
    /// to sched.* counters when it returns.  Published once per run, not
    /// per step; must outlive the scheduler.
    obs::Registry* metrics = nullptr;

    /// DPOR sleep set carried into this run (empty for everyone but the
    /// explorer's Reduction::Dpor mode).  Each entry names a thread whose
    /// pending step is already covered by a sibling branch; from decision
    /// point `sleepFilterFrom` on, sleeping threads are excluded from the
    /// strategy's pick, and a decision point whose every runnable thread is
    /// asleep ends the run early with RunResult::sleepPruned set (the whole
    /// subtree is redundant).  An entry wakes when a step at index >=
    /// `sleepProcessFrom` is dependent with its footprint (or is the
    /// sleeping thread itself).  Filtering stops at `sleepFilterTo` (the
    /// explorer's branch-depth bound): past it no branching happens, so
    /// picks must match the unreduced explorer's free run for the executed
    /// leaves to stay comparable.  Requires captureState (footprints drive
    /// the wake rule).
    std::vector<SleepEntry> sleepSet;
    std::size_t sleepProcessFrom = 0;
    std::size_t sleepFilterFrom = 0;
    std::size_t sleepFilterTo = static_cast<std::size_t>(-1);

    /// Back logical threads with stack-switched fibers instead of real
    /// std::threads.  Fibers run on the controller's own thread under the
    /// same strict alternation, but their stacks can be copied in and out,
    /// which is what makes checkpoint/restore of mid-run threads possible,
    /// and a switch costs a few registers instead of two semaphore
    /// hand-offs.  Set by the incremental explorer and by single captured
    /// runs (inject::ExploreConfig::capture); requires fibersSupported().
    bool fibers = false;
  };

  explicit VirtualScheduler(Strategy& strategy) : VirtualScheduler(strategy, Options()) {}
  VirtualScheduler(Strategy& strategy, Options opts);
  ~VirtualScheduler();

  VirtualScheduler(const VirtualScheduler&) = delete;
  VirtualScheduler& operator=(const VirtualScheduler&) = delete;

  /// Create a logical thread.  May be called before run() or from a running
  /// logical thread; never after the run finished.
  ThreadId spawn(std::string name, std::function<void()> fn);

  /// Execute until completion, deadlock, step limit, or exception.
  /// Must be called from the controller thread (the one that constructed
  /// the scheduler); runs each logical thread in strict alternation.
  RunResult run();

  // ---- Called from the RUNNING logical thread -----------------------------

  /// Voluntary schedule point: lets the strategy preempt here.
  void yield();

  /// Block the calling thread.  Returns when some other agent called
  /// unblock() on it AND the strategy scheduled it again.
  /// Throws ExecutionAborted if the run is being torn down.
  void block(BlockKind kind, std::uint64_t resource);

  /// Make a blocked thread runnable.  Called by the running thread (e.g. a
  /// monitor handing over a lock) or by an IdleHandler on the controller.
  void unblock(ThreadId t);

  /// Block the calling logical thread until `t` finishes (Java
  /// Thread.join).  Returns immediately if `t` already finished.
  /// Self-join is a UsageError.
  void joinThread(ThreadId t);

  /// Update the recorded block reason of a thread that stays blocked
  /// (e.g. a notified waiter that moved from the wait set to the lock
  /// entry queue: CondWait -> LockAcquire).  Keeps deadlock reports honest.
  void reblock(ThreadId t, BlockKind kind, std::uint64_t resource);

  /// Logical id of the calling thread; kNoThread on the controller.
  ThreadId currentThread() const;

  /// Name of a logical thread.
  const std::string& threadName(ThreadId t) const;

  /// True while the calling context is a logical thread of this scheduler.
  bool onLogicalThread() const;

  /// Blocked/runnable introspection (used by deadlock reporting and tests).
  BlockKind blockKindOf(ThreadId t) const;
  std::size_t threadCount() const;

  /// Register an idle handler (e.g. the abstract clock).  Handlers are
  /// consulted in registration order.
  void addIdleHandler(IdleHandler* h);

  // ---- state fingerprinting (schedule-tree pruning) -----------------------

  /// Register an object whose state participates in fingerprint().  Sources
  /// are hashed in registration order, which is deterministic because the
  /// explorer's program callback constructs the same objects in the same
  /// order on every run.  Monitors, SharedVars and the Runtime register
  /// themselves in virtual mode.
  void addFingerprintSource(const FingerprintSource* s);

  /// Unregister a source (called from its destructor).  Safe during
  /// scheduler teardown.
  void removeFingerprintSource(const FingerprintSource* s);

  // ---- state snapshots (incremental exploration) --------------------------

  /// Register an object whose mutable state must survive checkpoint /
  /// restore (see snapshot.hpp).  Monitors, SharedVars, the Runtime and
  /// the Injector register themselves in virtual mode, mirroring their
  /// fingerprint registration.
  void addSnapshotSource(SnapshotSource* s);

  /// Unregister a snapshot source (called from its destructor).
  void removeSnapshotSource(SnapshotSource* s);

  /// Declare that the program under test keeps ALL of its mutable state
  /// either in registered SnapshotSources or in plain stack locals of its
  /// logical threads (no heap-owning locals crossing schedule points, no
  /// unregistered shared state).  Only declared programs are eligible for
  /// incremental exploration; the scenario builders in
  /// components/scenarios.hpp declare themselves.
  void declareSnapshotSafe() { snapshotSafe_ = true; }

  /// Veto snapshot safety for this scheduler (e.g. a SharedVar over a
  /// non-copyable type cannot participate in save/restore).  Wins over any
  /// declareSnapshotSafe() call, before or after.
  void poisonSnapshotSafety() { snapshotPoisoned_ = true; }

  /// True when the program declared itself snapshot-safe and nothing
  /// vetoed it since.
  bool snapshotSafe() const { return snapshotSafe_ && !snapshotPoisoned_; }

  /// Hash of the complete scheduler-visible state: every logical thread's
  /// (status, block kind, block resource) plus each registered source.
  /// Deterministic: equal states yield equal fingerprints across runs.
  std::uint64_t fingerprint() const;

  /// Record that the currently-running logical thread accessed the resource
  /// identified by `tag` (see fpTag).  No-op unless Options::captureState is
  /// set and a logical thread is executing.  Called by the Runtime for every
  /// instrumented operation and by the scheduler's own blocking primitives.
  void noteAccess(std::uint64_t tag, bool isWrite);

  /// Mark the current step as having a global effect (thread spawn, clock
  /// progress): it will never be treated as independent of anything.
  void noteGlobalEffect();

  /// True while the run is being torn down (deadlock/step-limit/exception).
  /// RAII cleanup code uses this to tolerate partially-unwound state.
  bool aborting() const { return aborting_; }

  /// The scheduler's own deterministic RNG, seeded from the strategy-level
  /// seed by the caller; available to monitors for wake-policy choices.
  // (kept out of here on purpose: policy randomness lives in the Runtime.)

 private:
  friend class IncrementalRunner;

  enum class ThreadState : std::uint8_t { Runnable, Running, Blocked, Finished };

  struct ThreadRecord {
    // Both out of line: detail::Fiber is incomplete here.
    explicit ThreadRecord(ThreadId id_, std::string name_);
    ~ThreadRecord();
    ThreadId id;
    std::string name;
    ThreadState state = ThreadState::Runnable;
    BlockKind blockKind = BlockKind::None;
    std::uint64_t blockResource = 0;
    std::binary_semaphore sem{0};
    std::thread real;
    std::unique_ptr<detail::Fiber> fiber;  // set instead of `real` w/ fibers
    std::exception_ptr error;
    std::function<void()> fn;
    std::vector<ThreadId> joiners;  // threads blocked joining on this one
  };

  /// A copy-on-write checkpoint of the complete session state at one
  /// decision point: every logical thread's scheduler state and frozen
  /// stack, plus every registered SnapshotSource's payload.  Immutable
  /// once built; siblings share unmodified pieces via shared_ptr.
  struct Snapshot {
    struct ThreadSnap {
      ThreadState state = ThreadState::Runnable;
      BlockKind blockKind = BlockKind::None;
      std::uint64_t blockResource = 0;
      std::vector<ThreadId> joiners;
      std::shared_ptr<const detail::StackImage> stack;
    };
    struct SourceSnap {
      SnapshotSource* src = nullptr;
      std::shared_ptr<const void> payload;
      std::uint64_t version = 0;
    };
    std::vector<ThreadSnap> threads;
    std::uint64_t liveCount = 0;
    std::vector<SourceSnap> sources;
    std::uint64_t sourceGen = 0;
    /// Heap bytes newly serialized for this snapshot (payloads and stack
    /// images not shared with an earlier snapshot): the budget increment.
    std::size_t freshBytes = 0;
  };

  void workerMain(ThreadRecord& rec);
  static void fiberTrampoline();
  void fiberMain(ThreadRecord& rec);
  void finishSelf(ThreadRecord& rec);
  /// Hand the CPU to `rec` until it yields/blocks/finishes (semaphore
  /// hand-off for thread-backed records, a register-only stack switch for
  /// fibers).
  void resumeThread(ThreadRecord& rec);
  void switchToController(ThreadRecord& rec);
  void checkAbort() const;
  void abortRun();
  /// Fill `out` with the runnable thread ids, ascending.
  void runnableSet(std::vector<ThreadId>& out) const;
  ThreadRecord& recordOf(ThreadId t);
  const ThreadRecord& recordOf(ThreadId t) const;

  /// The decision loop shared verbatim by run() and the incremental
  /// runner.  Appends to `result` (which the runner pre-seeds with the
  /// restored prefix) until the run ends; `contextSwitches` counts pick
  /// changes across the executed portion.  Allocation-free per step once
  /// `result` and the scheduler's scratch buffers have grown.
  void runLoop(RunResult& result, std::uint64_t& contextSwitches);

  /// Freeze the complete session state (controller only, all fibers
  /// suspended).  Requires Options::fibers.
  std::shared_ptr<const Snapshot> saveSnapshot();

  /// Rewind the session to `snap`.  Returns false (leaving state poisoned
  /// for this session) if the thread set or snapshot-source registration
  /// changed since the snapshot was taken — the caller must then abandon
  /// incremental execution for this session.
  bool restoreSnapshot(const Snapshot& snap);

  Strategy& strategy_;
  Options opts_;
  // Declared before threads_ on purpose: destroying threads_ runs the
  // program closures' destructors, which unregister monitors / shared vars
  // from these vectors — they must still be alive then.
  std::vector<const FingerprintSource*> fingerprintSources_;
  std::vector<SnapshotSource*> snapshotSources_;
  std::uint64_t snapshotSourceGen_ = 0;  // bumped on (un)registration
  Footprint stepFootprint_;
  // runLoop scratch, kept across runs so a session does not reallocate.
  std::vector<ThreadId> runnable_;
  std::vector<ThreadId> awake_;
  std::vector<SleepEntry> sleep_;
  std::vector<std::unique_ptr<ThreadRecord>> threads_;
  std::vector<IdleHandler*> idleHandlers_;
  std::binary_semaphore controllerSem_{0};
  std::unique_ptr<detail::FiberRt> fiberRt_;  // controller context (fibers)
  /// Invoked by runLoop at every decision point, before the pick executes
  /// (the incremental runner installs this to store checkpoints).  Gets the
  /// step index and the runnable-set size: only multi-choice points can
  /// ever host a branch, so single-choice points skip the snapshot.
  std::function<void(std::uint64_t step, std::size_t runnableCount)>
      checkpointHook_;
  bool aborting_ = false;
  bool finished_ = false;
  bool snapshotSafe_ = false;
  bool snapshotPoisoned_ = false;
  std::uint64_t liveCount_ = 0;  // spawned and not finished
};

}  // namespace confail::sched
