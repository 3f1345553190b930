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
// StateSource's payload — glued to the path data (schedule / choice sets /
// fingerprints / footprints) of the prefix it stands for, so a restored
// run's RunResult is indistinguishable from a from-scratch execution of
// the same schedule.
// Snapshots are copy-on-write: stacks and payloads carry process-wide
// unique version stamps (snapshot.hpp), so sibling checkpoints share every
// piece that did not change between them and a checkpoint is charged only
// for its fresh bytes.
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
// DFS frontier, not the number of runs so far.  The arena recycles a dead
// node's slot, possibly on another worker and before this runner next
// looks, so a checkpoint is keyed by the node's address *and* its slot
// generation: a key whose slot has since been reused names a node that is
// gone, never matches a lookup, and is dropped like a dead one.  That is
// the only retention rule: no byte cap, no eviction.  The step-0
// checkpoint is keyed to the tree's root, which stays live until the
// exploration has no work left, so every run can at worst restore it.
//
// Fallback: a run restores its deepest checkpointed ancestor and replays
// the gap down to its own depth through the same strategy.  Stolen work
// needs this — its ancestors were checkpointed by another worker's
// session, so this session often holds only a shallower one (the root at
// worst) — and the replayed steps re-store the checkpoints they reach.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "confail/sched/prefix_tree.hpp"
#include "confail/sched/strategy.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace confail::obs {
class Counter;
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
  /// Per-session tallies, drained by the explorer into obs counters.
  struct Tally {
    std::uint64_t restores = 0;           ///< checkpoint restores performed
    std::uint64_t stores = 0;             ///< checkpoints stored
    std::uint64_t replayStepsAvoided = 0; ///< prefix steps not re-executed
    std::size_t retainedBytes = 0;        ///< current checkpoint estimate
    std::size_t peakBytes = 0;            ///< high-water mark of the above
  };

  /// Builds the session: constructs the scheduler, runs `program` once to
  /// build the object graph, and checks it declared itself snapshot-safe.
  /// Requires fibersSupported().  `runOpts` are the scheduler options of
  /// every explorer run (step bound, state capture, metrics); the session
  /// publishes the sched.* counters of each run itself.
  IncrementalRunner(const std::function<void(VirtualScheduler&)>& program,
                    const VirtualScheduler::Options& runOpts);
  ~IncrementalRunner();

  IncrementalRunner(const IncrementalRunner&) = delete;
  IncrementalRunner& operator=(const IncrementalRunner&) = delete;

  /// False when the program did not declare snapshot safety: the session
  /// cannot run anything and the caller must use replay.
  bool usable() const { return usable_; }

  /// Execute the run for the work item at `node` (whose materialized
  /// prefix the caller lends, exactly as it would to PrefixReplayStrategy).
  /// Restores the deepest cached ancestor checkpoint, replays the gap, and
  /// runs free — filling `result` identically to the replay path's
  /// RunResult.  `result` is cleared first but keeps its capacity, so a
  /// caller that reuses one result across runs stops allocating path data.
  /// For Reduction::Dpor runs, `dporMode` wires the node's sleep set into
  /// the scheduler with `branchDepthLimit` as the filter bound
  /// (Options::setSleepWindow, as on the replay path).
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
    std::size_t costBytes = 0;  ///< retained-bytes charge (fresh + path)
  };

  /// A prefix-tree node for one slot generation (see the file comment).
  struct Key {
    const PrefixNode* node = nullptr;
    std::uint32_t generation = 0;
    explicit Key(const PrefixNode* n = nullptr)
        : node(n),
          generation(n != nullptr
                         ? n->generation.load(std::memory_order_relaxed)
                         : 0) {}
    bool operator==(const Key&) const = default;
    /// The node has died, or its slot has been reused since the key was
    /// taken: no later run's prefix passes through the keyed node.
    bool gone() const {
      return node->dead() ||
             node->generation.load(std::memory_order_relaxed) != generation;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<const PrefixNode*>()(k.node) ^
             (static_cast<std::size_t>(k.generation) << 1);
    }
  };

  void onCheckpoint(std::uint64_t step, std::size_t runnableCount);
  /// Freeze the session at `depth` and charge it to the retained bytes.
  Checkpoint makeCheckpoint(std::size_t depth);
  void insert(Key key, Checkpoint ck);
  /// Drop the checkpoints of gone nodes (Key::gone): no later run's prefix
  /// passes through them, so they can never be restored again.
  void dropDead();
  void dropPending();

  SwapStrategy swap_;
  VirtualScheduler sched_;
  /// The sched.* counters, resolved once (null without metrics): a
  /// by-name lookup takes the registry lock, on every worker's every run.
  obs::Counter* runsCounter_ = nullptr;
  obs::Counter* stepsCounter_ = nullptr;
  obs::Counter* switchesCounter_ = nullptr;
  bool usable_ = false;
  bool firstRun_ = true;
  Tally tally_;

  /// Checkpoints keyed by the prefix-tree node whose path they froze.
  /// The arena recycles dead nodes' slots, so an address alone names a
  /// node only for one lifetime: keys carry the slot generation too, and
  /// entries for gone nodes are reclaimed by dropDead().
  std::unordered_map<Key, Checkpoint, KeyHash> cache_;

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
