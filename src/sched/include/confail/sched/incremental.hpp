// Incremental exploration: checkpoint/restore instead of prefix replay.
//
// The stateless explorer pays O(depth) re-execution for every run: a child
// branch replays its whole prefix before taking its one new step.  An
// *incremental session* kills that cost by keeping ONE long-lived scheduler
// per worker whose logical threads are fibers (copyable stacks, switched by
// a register-only stack switch on x86-64), checkpointing the complete
// execution state at branch points, and starting each child run by
// *restoring* its deepest checkpointed ancestor rather than replaying from
// the root.
//
// A checkpoint is a VirtualScheduler::Snapshot — every fiber's frozen stack
// (its saved registers are the stack's lowest bytes) plus every registered
// SnapshotSource's payload — glued
// to the path data (schedule / choice sets / fingerprints / footprints) of
// the prefix it stands for, so a restored run's RunResult is
// indistinguishable from a from-scratch execution of the same schedule.
// Snapshots are copy-on-write: stacks and payloads carry process-wide
// unique version stamps (snapshot.hpp), so sibling checkpoints share every
// piece that did not change between them and the budget only pays for
// fresh bytes.
//
// Equivalence by construction: the session drives the SAME runLoop as
// VirtualScheduler::run() with the SAME PrefixReplayStrategy (global step
// indices make the restored steps simply never consulted), so schedules,
// choice sets, fingerprints, footprints and outcomes are bit-identical to
// the replay path.  If anything breaks the session's assumptions — the
// program is not declared snapshot-safe, a restore detects mid-run
// (un)registration, the platform has no fibers (only x86-64 has a switch;
// aarch64 and sanitized builds replay) — the runner reports unusable/null
// and the explorer falls back to plain replay.
//
// Lifetime: a checkpoint lives as long as its prefix-tree node has work
// queued or running at or below it (PrefixNode::live).  Before each restore
// lookup the runner drops the checkpoints of dead nodes: no later run's
// prefix passes through them.  Retained memory therefore follows the live
// DFS frontier, not the number of runs so far.  Config::budgetBytes stays
// as a backstop: over it, checkpoints are dropped oldest-first (the root
// checkpoint is pinned) and a child whose immediate ancestor was evicted
// transparently restores a shallower ancestor and replays the gap — the
// self-healing fallback re-stores what it re-reaches.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "confail/sched/prefix_tree.hpp"
#include "confail/sched/strategy.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::sched {

/// Reseatable strategy indirection.  VirtualScheduler binds a Strategy& for
/// its whole life, but an incremental session reuses one scheduler across
/// many runs, each replaying a different prefix — so the session scheduler
/// is bound to this wrapper and the runner swaps the per-run replay
/// strategy underneath it.
class SwapStrategy final : public Strategy {
 public:
  void reset(Strategy* inner) { inner_ = inner; }

  ThreadId pick(const std::vector<ThreadId>& runnable,
                std::uint64_t step) override {
    CONFAIL_ASSERT(inner_ != nullptr, "SwapStrategy::pick with no inner");
    return inner_->pick(runnable, step);
  }

  void onSpawn(ThreadId t) override {
    // Spawns during program() construction precede the first run's strategy.
    if (inner_ != nullptr) inner_->onSpawn(t);
  }

 private:
  Strategy* inner_ = nullptr;
};

/// One worker's incremental-exploration session (not thread-safe; each
/// explorer worker owns one).  See the file comment for the design.
class IncrementalRunner {
 public:
  struct Config {
    std::uint64_t maxSteps = 200000;
    bool captureState = false;
    bool captureFingerprints = false;  ///< see VirtualScheduler::Options
    /// Retained-checkpoint memory cap (fresh bytes + path data, estimated).
    /// A backstop: dead nodes' checkpoints are dropped regardless.  Over
    /// the cap, live checkpoints are evicted oldest-first; the pinned root
    /// checkpoint never goes, so every run can at worst full-replay.
    std::size_t budgetBytes = 256ull * 1024 * 1024;
    obs::Registry* metrics = nullptr;  ///< per-run sched.* counters sink
  };

  /// Per-session tallies, drained by the explorer into obs counters.
  struct Tally {
    std::uint64_t restores = 0;           ///< checkpoint restores performed
    std::uint64_t stores = 0;             ///< checkpoints stored
    std::uint64_t evictions = 0;          ///< checkpoints evicted (budget)
    std::uint64_t budgetSkips = 0;        ///< checkpoints skipped (budget)
    std::uint64_t replayStepsAvoided = 0; ///< prefix steps not re-executed
    std::size_t retainedBytes = 0;        ///< current checkpoint estimate
    std::size_t peakBytes = 0;            ///< high-water mark of the above
  };

  /// Builds the session: constructs the fiber scheduler, runs `program`
  /// once to build the object graph, and checks it declared itself
  /// snapshot-safe.  Requires fibersSupported().
  IncrementalRunner(const std::function<void(VirtualScheduler&)>& program,
                    const Config& cfg);
  ~IncrementalRunner();

  IncrementalRunner(const IncrementalRunner&) = delete;
  IncrementalRunner& operator=(const IncrementalRunner&) = delete;

  /// False when the program did not declare snapshot safety (or poisoned
  /// it): the session cannot run anything and the caller must use replay.
  bool usable() const { return usable_; }

  /// Execute the run for the work item at `node` (whose materialized
  /// prefix the caller lends, exactly as it would to PrefixReplayStrategy).
  /// Restores the deepest cached ancestor checkpoint, replays the gap, and
  /// runs free — filling `result` identically to the replay path's
  /// RunResult.  `result` is cleared first but keeps its capacity, so a
  /// caller that reuses one result across runs stops allocating path data.
  /// For Reduction::Dpor runs, `dporMode` wires the node's sleep set into
  /// the scheduler with `branchDepthLimit` as the filter bound.
  /// Returns false (and flips usable() off) if the session discovered it
  /// cannot continue incrementally; the caller falls back to replay.
  bool run(RunResult& result, const PrefixNode* node,
           const std::vector<ThreadId>& prefix, ThreadId avoidAtFirstFree,
           std::size_t branchDepthLimit, bool dporMode);

  /// Attach the pending checkpoint taken at `spineNode->depth` during the
  /// most recent run() to the now-materialized spine node, making it
  /// restorable by that node's descendants.  The explorer calls this at
  /// every branch point it expands.
  void bind(const PrefixNode* spineNode);

  const Tally& tally() const { return tally_; }

 private:
  /// A restorable branch point: the frozen session state plus the path
  /// data of the prefix it stands for (seeds the child's RunResult).
  struct Checkpoint {
    std::shared_ptr<const VirtualScheduler::Snapshot> snap;
    std::vector<ThreadId> schedule;
    ChoiceSets choiceSets;
    std::vector<std::uint64_t> fingerprints;
    std::vector<Footprint> stepFootprints;
    std::size_t costBytes = 0;  ///< budget charge (fresh + path estimate)
  };

  void onCheckpoint(std::uint64_t step, std::size_t runnableCount);
  Checkpoint makeCheckpoint(std::size_t depth);
  /// Admit `ck` under the budget (evicting oldest-first); false = skipped.
  bool admit(Checkpoint& ck, bool pinned);
  void insert(const PrefixNode* key, Checkpoint ck);
  /// Drop the checkpoints of dead nodes (PrefixNode::dead): no later run's
  /// prefix passes through them, so they can never be restored again.
  void dropDead();
  void dropPending();

  Config cfg_;
  SwapStrategy swap_;
  VirtualScheduler sched_;
  bool usable_ = false;
  bool firstRun_ = true;
  Tally tally_;

  /// Checkpoints keyed by the prefix-tree node whose path they froze.
  /// Nodes are arena-allocated for the whole exploration, so raw pointers
  /// are stable keys; entries for dead nodes are reclaimed by dropDead().
  std::unordered_map<const PrefixNode*, Checkpoint> cache_;
  /// Every key but the root's, oldest first (the eviction order).
  std::deque<const PrefixNode*> evictOrder_;
  const PrefixNode* rootKey_ = nullptr;       ///< pinned (never evicted)

  /// Checkpoints taken during the current run at depths past the replayed
  /// prefix, awaiting bind() to their spine nodes; keyed by depth.
  std::unordered_map<std::size_t, Checkpoint> pending_;

  // Per-run state consumed by the checkpoint hook.
  RunResult* resultPtr_ = nullptr;
  std::size_t curPrefixLen_ = 0;
  std::size_t curBranchLimit_ = 0;

  std::vector<const PrefixNode*> chain_;  ///< reusable ancestor scratch
};

}  // namespace confail::sched
