// Bounded exhaustive schedule exploration (stateless, parallel DFS).
//
// The explorer repeatedly executes a *program* — a callback that spawns
// logical threads on a fresh VirtualScheduler — replaying a schedule prefix
// and then branching on every decision point where more than one thread was
// runnable.  Because everything in confail is deterministic modulo the
// schedule, identical prefixes reproduce identical states, so the set of
// explored schedules forms a tree that covers every interleaving up to the
// configured bounds.
//
// The tree is explored by `workers` OS threads pulling prefixes from a
// work-stealing queue; each worker owns its own scheduler replay, so runs
// proceed fully in parallel.  Queued prefixes are nodes of an immutable
// parent-pointer tree bump-allocated per worker (see prefix_tree.hpp), so
// enqueueing a child is O(1) instead of an O(depth) vector copy.
//
// Optional reductions cut the tree:
//
//   * fingerprintPruning — hash the full execution state (thread statuses,
//     lock owners, wait sets, shared-variable contents, policy-RNG stream)
//     at every decision point and branch from a (depth, fingerprint) pair
//     at most once, JPF-style;
//   * Reduction::Sleep — skip the transposed sibling of two adjacent
//     independent steps (their footprints touch disjoint state), a one-shot
//     sleep-set reduction;
//   * Reduction::Dpor — footprint-driven dynamic partial-order reduction
//     (source-set backtracking, Flanagan–Godefroid lineage): instead of
//     enqueueing every untried sibling at every branch point, each executed
//     run is scanned for races (pairs of dependent steps by different
//     threads) and only the schedule reversals those races demand are
//     enqueued, exactly once per decision point via an atomic claim mask on
//     the shared prefix tree.  Explores at least one representative of
//     every Mazurkiewicz trace within bounds; failing witnesses are
//     canonicalized to the lexicographically smallest linearization of
//     their trace so `firstFailure` matches the one Reduction::None finds.
//
// See docs/exploration.md for the design, the determinism guarantees, and
// the soundness argument for the reductions.
//
// This is the mechanism that turns the paper's failure classes from
// "things that may happen under some JVM scheduler" into properties that
// can be *proved reachable* (a deadlock exists / a race manifests) or
// exhaustively absent within bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "confail/sched/virtual_scheduler.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::sched {

/// The lexicographically smallest linearization of a run's Mazurkiewicz
/// trace (program order + footprint dependence); requires the run to have
/// been captured with VirtualScheduler::Options::captureState.  Two runs of
/// the same trace canonicalize identically, so this is a trace-class
/// identity usable for cross-reduction comparisons; ExhaustiveExplorer uses
/// it to report DPOR failure witnesses.  Returns the schedule unchanged for
/// very long runs or when footprints are missing.
std::vector<ThreadId> canonicalTraceWitness(const RunResult& result);

class ExhaustiveExplorer {
 public:
  /// Schedule-tree reduction level (orthogonal to fingerprintPruning,
  /// except that Dpor ignores the fingerprint dedup table — see below).
  enum class Reduction : std::uint8_t {
    None,   ///< branch on every untried sibling (full enumeration)
    Sleep,  ///< one-shot sleep-set skip of transposed independent steps
    Dpor,   ///< source-set dynamic partial-order reduction
  };

  /// Periodic heartbeat snapshot passed to Options::onProgress.
  struct Progress {
    std::uint64_t runs = 0;        ///< runs claimed so far
    std::int64_t queueDepth = 0;   ///< prefixes awaiting execution (approx)
    std::uint64_t steals = 0;      ///< cross-worker queue migrations so far
    double elapsedSec = 0.0;
    double runsPerSec = 0.0;
  };
  using ProgressCallback = std::function<void(const Progress&)>;

  struct Options {
    std::uint64_t maxRuns = 10000;     ///< execution budget
    std::uint64_t maxSteps = 100000;   ///< per-run step budget
    std::size_t maxBranchDepth = static_cast<std::size_t>(-1);
    ///< only branch on decision points below this index (iteration bounding)

    /// Number of exploration worker threads.  1 (the default) explores on
    /// the calling thread with no extra threads — bit-identical to the
    /// legacy serial DFS.  0 means std::thread::hardware_concurrency().
    std::size_t workers = 1;

    /// Branch from each (depth, state-fingerprint) pair at most once.
    /// Cuts re-exploration of converged interleavings; Stats counters stay
    /// deterministic across worker counts (see docs/exploration.md).
    /// Ignored under Reduction::Dpor: a state's backtrack set depends on
    /// the races seen along the path that reached it, so deduping by state
    /// alone could skip a reversal DPOR still needs.
    bool fingerprintPruning = false;

    /// Which schedule-tree reduction to apply (see Reduction).  Sleep with
    /// workers == 1 stays byte-identical to the historical sleep-set
    /// explorer output; Dpor preserves the failure set and the
    /// lexicographic-min witness but explores far fewer runs.
    Reduction reduction = Reduction::None;

    /// Incremental exploration: each worker keeps one long-lived fiber
    /// scheduler, checkpoints its state at branch points (copy-on-write —
    /// siblings share unmodified stacks and payloads) and starts each child
    /// run by restoring its parent's checkpoint instead of replaying the
    /// O(depth) prefix.  Produces the exact same runs, failure sets,
    /// canonical witnesses and Stats counters as replay.  A checkpoint is
    /// dropped once no work item is queued or running in its prefix-tree
    /// subtree, so retained memory follows the live DFS frontier.  Silently
    /// falls back to replay when fibers are unsupported (sanitized builds,
    /// every target but x86-64 Linux, aarch64 included) or the program is
    /// not snapshot-safe (see VirtualScheduler::declareSnapshotSafe).  See
    /// docs/exploration.md.
    bool incremental = true;

    /// Optional metrics sink.  When set, explore() publishes throughput
    /// (explorer.runs_per_sec), reduction effectiveness
    /// (explorer.dedup_hit_rate, explorer.dpor_backtracks), work-stealing
    /// traffic (explorer.steals), per-run schedule lengths
    /// (explorer.run_steps histogram), per-worker run counts and
    /// utilization, memory pressure (explorer.prefix_arena_bytes,
    /// explorer.visited_load_factor) and the outcome counters.  Recording
    /// is batched per worker and written once at merge time, so the hot
    /// loop is untouched; the registry must outlive explore().
    obs::Registry* metrics = nullptr;

    /// Invoke onProgress roughly every this many runs (0 disables).  The
    /// callback fires from whichever worker crosses the boundary, serialized
    /// under its own mutex (independent of the run callback); keep it cheap.
    std::uint64_t progressIntervalRuns = 0;
    ProgressCallback onProgress;
  };

  /// A program spawns its logical threads on the given scheduler; the
  /// explorer then drives the run.  The callback must build all state
  /// afresh on each invocation (the explorer re-executes many times), and
  /// with workers > 1 it must be safe to invoke from several exploration
  /// threads concurrently (each invocation gets its own scheduler).
  using Program = std::function<void(VirtualScheduler&)>;

  /// Invoked after every run with the schedule that was executed and its
  /// result.  Return false to stop exploring early (e.g. first bug found).
  /// Invocations are serialized under an internal mutex, but with
  /// workers > 1 they arrive from arbitrary worker threads and in a
  /// nondeterministic order; runs already in flight when the callback
  /// returns false still complete (without further callbacks).
  /// Under Reduction::Dpor, sleep-pruned partial runs (every runnable
  /// thread asleep — a redundant prefix, not a leaf of the reduced tree)
  /// consume run budget but are never reported through the callback.
  using RunCallback =
      std::function<bool(const std::vector<ThreadId>& schedule, const RunResult&)>;

  struct Stats {
    std::uint64_t runs = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadlocks = 0;
    std::uint64_t stepLimited = 0;
    std::uint64_t exceptions = 0;
    /// Child prefixes skipped by fingerprint pruning or sleep sets.
    std::uint64_t prunedBranches = 0;
    /// Decision points whose (depth, fingerprint) had already been expanded.
    std::uint64_t dedupedStates = 0;
    /// Reduction::Dpor only: schedule reversals enqueued by the race
    /// analysis (the entire frontier past the root run, since DPOR queues
    /// work exclusively through backtracking).
    std::uint64_t dporBacktracks = 0;
    /// Reduction::Dpor only: runs cut short at a decision point where every
    /// runnable thread was asleep (RunResult::sleepPruned).  Each is a
    /// redundant prefix, not a leaf: it used a run-budget slot, reported no
    /// outcome, and is also counted in prunedBranches.  These are the runs
    /// an optimal DPOR would not execute at all.
    std::uint64_t sleepBlockedRuns = 0;
    /// Incremental exploration only (all zero under replay).  These count
    /// mechanism, not tree shape, so unlike the counters above they may
    /// legitimately vary across worker counts and traversal orders.
    std::uint64_t snapshotRestores = 0;   ///< runs started from a checkpoint
    std::uint64_t replayStepsAvoided = 0; ///< prefix steps never re-executed
    std::size_t snapshotPeakBytes = 0;    ///< max per-worker retained bytes
    bool exhausted = false;   ///< true if the whole bounded tree was covered
    bool stoppedByCallback = false;
    /// Lexicographically smallest failing schedule (deadlock / step limit /
    /// exception) among all executed runs, if any — replay it with
    /// PrefixReplayStrategy to reproduce the failure deterministically.
    /// The lexicographic-minimum rule makes the witness independent of
    /// traversal order, so it is identical across worker counts whenever
    /// the same set of runs executes (always true on an exhausted tree
    /// with reductions off), and is reported even when the run budget is
    /// exhausted mid-tree.  Under Reduction::Dpor each failing schedule is
    /// first canonicalized to the lexicographically smallest linearization
    /// of its Mazurkiewicz trace, so the witness matches the one
    /// Reduction::None reports even though DPOR may never execute it.
    std::vector<ThreadId> firstFailure;
    Outcome firstFailureOutcome = Outcome::Completed;
  };

  ExhaustiveExplorer() : ExhaustiveExplorer(Options()) {}
  explicit ExhaustiveExplorer(Options opts) : opts_(opts) {}

  /// Explore the schedule tree of `program`.  `cb` may be null.
  Stats explore(const Program& program, const RunCallback& cb = nullptr) const;

 private:
  Options opts_;
};

}  // namespace confail::sched
