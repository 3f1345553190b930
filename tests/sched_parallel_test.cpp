// Parallel explorer: determinism across worker counts, fingerprint
// pruning, sleep sets, and budget-exhaustion reporting.
//
// The determinism contract under test (see docs/exploration.md):
//   * reductions off + exhausted tree -> every Stats counter AND the
//     canonical firstFailure (lexicographically smallest failing schedule)
//     are identical at any worker count;
//   * fingerprint pruning on -> counts may shift slightly with worker
//     count, but the set of distinct deadlock states is preserved, and is
//     the same set the unpruned exploration finds;
//   * the run budget is exact and firstFailure is reported even when the
//     budget dies mid-tree.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "confail/components/scenarios.hpp"
#include "confail/sched/explorer.hpp"

namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;

namespace {

using Scenario = void (*)(sched::VirtualScheduler&,
                          const scenarios::Instruments&);

/// Hash of the blocked set of a deadlocked run: which threads are stuck,
/// why, and on what.  Two runs deadlocking in the same state (possibly via
/// different schedules) have equal signatures.
std::uint64_t deadlockSignature(const sched::RunResult& r) {
  std::uint64_t h = sched::kFpSeed;
  for (const sched::BlockedThreadInfo& b : r.blocked) {
    h = sched::fpMix(h, (static_cast<std::uint64_t>(b.id) << 32) ^
                            static_cast<std::uint64_t>(b.kind));
    h = sched::fpMix(h, b.resource);
  }
  return h;
}

struct Exploration {
  sched::ExhaustiveExplorer::Stats stats;
  std::set<std::uint64_t> deadlockSigs;
};

Exploration explore(Scenario scenario, sched::ExhaustiveExplorer::Options eo) {
  eo.maxSteps = 20000;
  sched::ExhaustiveExplorer explorer(eo);
  Exploration out;
  out.stats = explorer.explore(
      [scenario](sched::VirtualScheduler& s) { scenario(s, {}); },
      [&out](const std::vector<sched::ThreadId>&, const sched::RunResult& r) {
        if (r.outcome == sched::Outcome::Deadlock) {
          out.deadlockSigs.insert(deadlockSignature(r));
        }
        return true;
      });
  return out;
}

}  // namespace

// Reductions off, exhausted tree: all counters and the canonical witness
// are identical at 1, 2 and 8 workers.  lockOrder (FF-T2) has deadlocks,
// so this also pins the canonical firstFailure across worker counts.
TEST(ParallelExplorer, LockOrderDeterministicAcrossWorkerCounts) {
  Exploration serial;
  for (std::size_t workers : {1u, 2u, 8u}) {
    sched::ExhaustiveExplorer::Options eo;
    eo.workers = workers;
    Exploration e = explore(scenarios::lockOrder, eo);
    ASSERT_TRUE(e.stats.exhausted);
    EXPECT_GT(e.stats.runs, 0u);
    EXPECT_GT(e.stats.deadlocks, 0u);
    EXPECT_EQ(e.stats.prunedBranches, 0u);  // no reductions -> zero counters
    EXPECT_EQ(e.stats.dedupedStates, 0u);
    EXPECT_FALSE(e.stats.firstFailure.empty());
    EXPECT_EQ(e.stats.firstFailureOutcome, sched::Outcome::Deadlock);
    if (workers == 1) {
      serial = e;
      continue;
    }
    EXPECT_EQ(e.stats.runs, serial.stats.runs) << "workers=" << workers;
    EXPECT_EQ(e.stats.completed, serial.stats.completed);
    EXPECT_EQ(e.stats.deadlocks, serial.stats.deadlocks);
    EXPECT_EQ(e.stats.stepLimited, serial.stats.stepLimited);
    EXPECT_EQ(e.stats.exceptions, serial.stats.exceptions);
    EXPECT_EQ(e.stats.firstFailure, serial.stats.firstFailure);
    EXPECT_EQ(e.deadlockSigs, serial.deadlockSigs);
  }
}

// The Figure-2 producer/consumer shape (correct notifyAll buffer),
// branch-bounded so the tree exhausts: counters identical across worker
// counts and no deadlock exists within the bound.
TEST(ParallelExplorer, Figure2DeterministicAcrossWorkerCounts) {
  Exploration serial;
  for (std::size_t workers : {1u, 2u, 8u}) {
    sched::ExhaustiveExplorer::Options eo;
    eo.workers = workers;
    eo.maxBranchDepth = 5;
    Exploration e = explore(scenarios::figure2, eo);
    ASSERT_TRUE(e.stats.exhausted);
    EXPECT_EQ(e.stats.deadlocks, 0u);
    if (workers == 1) {
      serial = e;
      continue;
    }
    EXPECT_EQ(e.stats.runs, serial.stats.runs) << "workers=" << workers;
    EXPECT_EQ(e.stats.completed, serial.stats.completed);
    EXPECT_EQ(e.stats.exhausted, serial.stats.exhausted);
  }
}

// FF-T5 notify-vs-notifyAll with fingerprint pruning: the pruned tree is
// explored at 1, 2 and 8 workers; the set of distinct deadlock states is
// identical every time (run counts may differ slightly — documented).
TEST(ParallelExplorer, FfT5PrunedDeadlockSetStableAcrossWorkerCounts) {
  std::set<std::uint64_t> serialSigs;
  for (std::size_t workers : {1u, 2u, 8u}) {
    sched::ExhaustiveExplorer::Options eo;
    eo.workers = workers;
    eo.maxBranchDepth = 8;
    eo.fingerprintPruning = true;
    Exploration e = explore(scenarios::ffT5Small, eo);
    ASSERT_TRUE(e.stats.exhausted);
    EXPECT_GT(e.stats.deadlocks, 0u);
    EXPECT_GT(e.stats.dedupedStates, 0u);
    EXPECT_GT(e.stats.prunedBranches, 0u);
    if (workers == 1) {
      serialSigs = e.deadlockSigs;
      continue;
    }
    EXPECT_EQ(e.deadlockSigs, serialSigs) << "workers=" << workers;
  }
}

// Fingerprint pruning vs the full tree, serially: far fewer runs, same
// distinct deadlock states.  lockOrder keeps the unpruned tree small.
TEST(ParallelExplorer, PruningCutsRunsButFindsSameDeadlockSet) {
  sched::ExhaustiveExplorer::Options unprunedOpts;
  Exploration unpruned = explore(scenarios::lockOrder, unprunedOpts);
  ASSERT_TRUE(unpruned.stats.exhausted);
  ASSERT_GT(unpruned.stats.deadlocks, 0u);

  sched::ExhaustiveExplorer::Options prunedOpts;
  prunedOpts.fingerprintPruning = true;
  Exploration pruned = explore(scenarios::lockOrder, prunedOpts);
  ASSERT_TRUE(pruned.stats.exhausted);

  EXPECT_LT(pruned.stats.runs, unpruned.stats.runs);
  // The acceptance bar is a >= 30% run reduction; actual is ~84% here.
  EXPECT_LE(pruned.stats.runs * 10, unpruned.stats.runs * 7);
  EXPECT_GT(pruned.stats.dedupedStates, 0u);
  EXPECT_GT(pruned.stats.prunedBranches, 0u);
  EXPECT_EQ(pruned.deadlockSigs, unpruned.deadlockSigs);
  EXPECT_FALSE(pruned.deadlockSigs.empty());
}

// Same reduction bar on the Figure-2 producer/consumer shape (deadlock
// free within the bound: both sides must agree on that, too).
TEST(ParallelExplorer, PruningCutsRunsOnFigure2) {
  sched::ExhaustiveExplorer::Options unprunedOpts;
  unprunedOpts.maxBranchDepth = 4;
  Exploration unpruned = explore(scenarios::figure2, unprunedOpts);
  ASSERT_TRUE(unpruned.stats.exhausted);

  sched::ExhaustiveExplorer::Options prunedOpts;
  prunedOpts.maxBranchDepth = 4;
  prunedOpts.fingerprintPruning = true;
  Exploration pruned = explore(scenarios::figure2, prunedOpts);
  ASSERT_TRUE(pruned.stats.exhausted);

  EXPECT_LE(pruned.stats.runs * 10, unpruned.stats.runs * 7);
  EXPECT_EQ(pruned.deadlockSigs, unpruned.deadlockSigs);  // both empty
  EXPECT_EQ(pruned.stats.deadlocks, 0u);
  EXPECT_EQ(unpruned.stats.deadlocks, 0u);
}

// Sleep sets on two threads over disjoint state: adjacent steps always
// commute, so a large share of the transposed interleavings is skipped,
// with identical outcomes.
TEST(ParallelExplorer, SleepSetsPruneCommutingSiblings) {
  sched::ExhaustiveExplorer::Options plainOpts;
  Exploration plain = explore(scenarios::disjointCounters, plainOpts);
  ASSERT_TRUE(plain.stats.exhausted);
  EXPECT_EQ(plain.stats.deadlocks, 0u);
  EXPECT_EQ(plain.stats.completed, plain.stats.runs);

  sched::ExhaustiveExplorer::Options sleepOpts;
  sleepOpts.reduction = sched::ExhaustiveExplorer::Reduction::Sleep;
  Exploration sleepy = explore(scenarios::disjointCounters, sleepOpts);
  ASSERT_TRUE(sleepy.stats.exhausted);
  EXPECT_EQ(sleepy.stats.deadlocks, 0u);
  EXPECT_EQ(sleepy.stats.completed, sleepy.stats.runs);

  EXPECT_LT(sleepy.stats.runs, plain.stats.runs);
  EXPECT_GT(sleepy.stats.prunedBranches, 0u);
  EXPECT_EQ(sleepy.stats.dedupedStates, 0u);  // pruning off: no dedup
}

// Sleep sets must not lose failure states: lockOrder's steps conflict on
// the two monitors in the deadlocking region, and the one distinct
// deadlock survives the reduction.
TEST(ParallelExplorer, SleepSetsPreserveDeadlockSet) {
  sched::ExhaustiveExplorer::Options plainOpts;
  Exploration plain = explore(scenarios::lockOrder, plainOpts);

  sched::ExhaustiveExplorer::Options sleepOpts;
  sleepOpts.reduction = sched::ExhaustiveExplorer::Reduction::Sleep;
  Exploration sleepy = explore(scenarios::lockOrder, sleepOpts);
  ASSERT_TRUE(sleepy.stats.exhausted);

  EXPECT_LT(sleepy.stats.runs, plain.stats.runs);
  EXPECT_EQ(sleepy.deadlockSigs, plain.deadlockSigs);
  EXPECT_FALSE(sleepy.deadlockSigs.empty());
}

// Budget exhaustion mid-tree: the claim is exact (exactly maxRuns runs),
// exhausted stays false, and firstFailure is still reported if any
// executed run failed.
TEST(ParallelExplorer, BudgetExhaustionReportsFirstFailure) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 10;
  Exploration e = explore(scenarios::lockOrder, eo);
  EXPECT_EQ(e.stats.runs, 10u);
  EXPECT_FALSE(e.stats.exhausted);
  EXPECT_GT(e.stats.deadlocks, 0u);
  ASSERT_FALSE(e.stats.firstFailure.empty());
  EXPECT_EQ(e.stats.firstFailureOutcome, sched::Outcome::Deadlock);
}

// The canonical witness replays to the reported failure.
TEST(ParallelExplorer, FirstFailureReplaysToDeadlock) {
  sched::ExhaustiveExplorer::Options eo;
  Exploration e = explore(scenarios::lockOrder, eo);
  ASSERT_FALSE(e.stats.firstFailure.empty());

  sched::PrefixReplayStrategy replay(e.stats.firstFailure);
  sched::VirtualScheduler s(replay);
  scenarios::lockOrder(s, {});
  sched::RunResult r = s.run();
  EXPECT_EQ(r.outcome, sched::Outcome::Deadlock);
}

// A zero budget executes nothing and claims no coverage.
TEST(ParallelExplorer, ZeroBudgetRunsNothing) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 0;
  Exploration e = explore(scenarios::lockOrder, eo);
  EXPECT_EQ(e.stats.runs, 0u);
  EXPECT_FALSE(e.stats.exhausted);
  EXPECT_TRUE(e.stats.firstFailure.empty());
}

// workers == 0 resolves to hardware_concurrency and behaves like any other
// worker count: with reductions off on an exhausted tree, same counters.
TEST(ParallelExplorer, HardwareConcurrencyWorkersMatchSerial) {
  sched::ExhaustiveExplorer::Options serialOpts;
  Exploration serial = explore(scenarios::lockOrder, serialOpts);

  sched::ExhaustiveExplorer::Options autoOpts;
  autoOpts.workers = 0;
  Exploration autod = explore(scenarios::lockOrder, autoOpts);
  ASSERT_TRUE(autod.stats.exhausted);
  EXPECT_EQ(autod.stats.runs, serial.stats.runs);
  EXPECT_EQ(autod.stats.deadlocks, serial.stats.deadlocks);
  EXPECT_EQ(autod.stats.firstFailure, serial.stats.firstFailure);
}

// A callback stop is honored in parallel mode without hanging and without
// claiming exhaustion.
TEST(ParallelExplorer, CallbackStopTerminatesParallelExploration) {
  sched::ExhaustiveExplorer::Options eo;
  eo.workers = 4;
  sched::ExhaustiveExplorer explorer(eo);
  std::uint64_t seen = 0;
  auto stats = explorer.explore(
      [](sched::VirtualScheduler& s) { scenarios::lockOrder(s, {}); },
      [&seen](const std::vector<sched::ThreadId>&, const sched::RunResult&) {
        // Serialized by the explorer; plain mutation is safe here.
        return ++seen < 5;
      });
  EXPECT_TRUE(stats.stoppedByCallback);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_GE(stats.runs, 5u);
}
