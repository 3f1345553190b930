// Source-set DPOR (Reduction::Dpor): failure-set preservation against full
// enumeration, canonical lexicographic-min witnesses, determinism across
// worker counts, and the reduction actually reducing.
//
// The contract under test (see docs/exploration.md):
//   * Within a branch-depth bound chosen deep enough for the scenario (see
//     the per-scenario table below — bounded partial-order reduction is
//     incomplete at very tight bounds, where reversing an in-bound race
//     needs a branch the bound forbids), DPOR finds the same set of
//     distinct deadlock states as Reduction::None, in strictly fewer runs.
//   * Stats::firstFailure under DPOR is the lexicographically smallest
//     *canonicalized* failing schedule: every failing run is rewritten to
//     the lex-min linearization of its Mazurkiewicz trace, which equals
//     the minimum over the canonicalizations of every failing run the full
//     enumeration executes — even though DPOR executes only one
//     representative per trace.  The witness replays to the same outcome.
//   * All of the above is identical at 1, 2 and 8 workers: the prefix
//     tree's atomic claim masks make the explored frontier a function of
//     the scenario, not of scheduling luck.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/fingerprint.hpp"

namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;

namespace {

using Reduction = sched::ExhaustiveExplorer::Reduction;

/// Hash of the blocked set of a deadlocked run — two runs deadlocking in
/// the same state (via different schedules) have equal signatures.
std::uint64_t deadlockSignature(const sched::RunResult& r) {
  std::uint64_t h = sched::kFpSeed;
  for (const sched::BlockedThreadInfo& b : r.blocked) {
    h = sched::fpMix(h, (static_cast<std::uint64_t>(b.id) << 32) ^
                            static_cast<std::uint64_t>(b.kind));
    h = sched::fpMix(h, b.resource);
  }
  return h;
}

/// Re-execute a recorded schedule with state capture and return the run.
sched::RunResult replay(const scenarios::NamedScenario& sc,
                        const std::vector<sched::ThreadId>& schedule) {
  sched::PrefixReplayStrategy strategy(schedule);
  sched::VirtualScheduler::Options so;
  so.maxSteps = 20000;
  so.captureState = true;
  sched::VirtualScheduler s(strategy, so);
  sc.fn(s);
  return s.run();
}

struct Exploration {
  sched::ExhaustiveExplorer::Stats stats;
  std::set<std::uint64_t> deadlockSigs;
  /// Minimum over all failing runs of the canonical (lex-min linearization
  /// of the trace) schedule; only collected for Reduction::None.
  std::vector<sched::ThreadId> minCanonicalFailure;
};

Exploration explore(const scenarios::NamedScenario& sc, Reduction reduction,
                    std::size_t maxDepth, std::size_t workers,
                    bool canonicalizeFailures, bool incremental = true) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 200000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = maxDepth;
  eo.reduction = reduction;
  eo.workers = workers;
  eo.incremental = incremental;
  sched::ExhaustiveExplorer explorer(eo);
  Exploration out;
  out.stats = explorer.explore(
      sc.fn, [&](const std::vector<sched::ThreadId>& schedule,
                 const sched::RunResult& r) {
        if (r.outcome == sched::Outcome::Deadlock) {
          out.deadlockSigs.insert(deadlockSignature(r));
        }
        if (canonicalizeFailures && r.outcome != sched::Outcome::Completed) {
          // The callback's RunResult has no footprints under
          // Reduction::None; re-execute to canonicalize.
          std::vector<sched::ThreadId> canon =
              sched::canonicalTraceWitness(replay(sc, schedule));
          if (out.minCanonicalFailure.empty() ||
              canon < out.minCanonicalFailure) {
            out.minCanonicalFailure = std::move(canon);
          }
        }
        return true;
      });
  return out;
}

/// Branch-depth bound per registry scenario, chosen (empirically) deep
/// enough that bounded DPOR's trace coverage includes every deadlock state
/// of the bounded full enumeration.  Tighter bounds genuinely diverge —
/// the classic bounded-POR incompleteness documented in
/// docs/exploration.md — so a new scenario must be calibrated, not
/// defaulted: the registry loop below fails on a scenario missing here.
std::size_t depthFor(const std::string& name) {
  if (name == "fig2") return 6;
  if (name == "ff_t5") return 6;
  if (name == "ff_t5_small") return 7;
  if (name == "lock_order") return 8;
  if (name == "disjoint") return 8;
  // The fuzzer-found reproducers: trees of a handful of steps, effectively
  // unbounded at depth 8.
  if (name == "gen_selfwait") return 8;
  if (name == "gen_lost_signal") return 8;
  if (name == "gen_unguarded_write") return 8;
  return 0;
}

/// The gen_* reproducers are deliberately minimal — every pair of steps
/// touches the same monitor or variable (or there is only one thread), so
/// DPOR has nothing independent to elide and may legitimately explore the
/// whole (tiny) tree.  Strict reduction is asserted everywhere else.
bool expectStrictReduction(const std::string& name) {
  return name.rfind("gen_", 0) != 0;
}

constexpr std::size_t kWorkerCounts[] = {1, 2, 8};

/// A recorded ff_t5 DPOR exploration: the tree shape the explorer must
/// reproduce exactly, at every worker count and on both execution paths.
struct PinnedDpor {
  std::size_t depth = 0;
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t sleepBlockedRuns = 0;
  std::uint64_t dporBacktracks = 0;
  std::uint64_t prunedBranches = 0;
  std::set<std::uint64_t> deadlockSigs;
};

/// Canonical witness of both pinned trees: the deadlock is already in the
/// depth-14 tree, and no deeper tree has a smaller linearization.
const std::vector<sched::ThreadId> kFfT5FirstFailure = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 2, 3, 3, 3,
    2, 2, 0, 0, 0, 0, 0, 1, 1, 3, 3, 3, 3, 3, 2, 2, 3};

const PinnedDpor kFfT5Depth14 = {
    14, 12292, 11861, 331, 100, 12291, 275272,
    {4436257981431912352ull, 16445529656523161392ull,
     16540830283880582476ull}};

/// The benchmark tree: the smallest bound with all 7 deadlock states.
const PinnedDpor kFfT5Depth18 = {
    18, 103107, 98408, 4100, 599, 103106, 2982518,
    {4436257981431912352ull, 6831674387274168894ull,
     14279418628927945502ull, 16440432144528572912ull,
     16445529656523161392ull, 16540830283880582476ull,
     16544572089443554636ull}};

/// The pinned trees take seconds with fibers.  Sanitized builds have none
/// and replay every run on OS threads, which would take hours.
constexpr const char* kNoFibers = "no fibers: the pinned trees would replay";

void expectPinned(const PinnedDpor& pin, std::size_t workers,
                  bool incremental) {
  SCOPED_TRACE("ff_t5 depth=" + std::to_string(pin.depth) + " workers=" +
               std::to_string(workers) +
               (incremental ? " incremental" : " replay"));
  const scenarios::NamedScenario* sc = scenarios::find("ff_t5");
  ASSERT_NE(sc, nullptr);
  const Exploration e = explore(*sc, Reduction::Dpor, pin.depth, workers,
                                /*canonicalizeFailures=*/false, incremental);
  const sched::ExhaustiveExplorer::Stats& st = e.stats;
  EXPECT_TRUE(st.exhausted);
  EXPECT_EQ(st.runs, pin.runs);
  EXPECT_EQ(st.completed, pin.completed);
  EXPECT_EQ(st.deadlocks, pin.deadlocks);
  EXPECT_EQ(st.stepLimited, 0u);
  EXPECT_EQ(st.exceptions, 0u);
  EXPECT_EQ(st.sleepBlockedRuns, pin.sleepBlockedRuns);
  EXPECT_EQ(st.dporBacktracks, pin.dporBacktracks);
  EXPECT_EQ(st.prunedBranches, pin.prunedBranches);
  EXPECT_EQ(e.deadlockSigs, pin.deadlockSigs);
  EXPECT_EQ(st.firstFailure, kFfT5FirstFailure);
  EXPECT_EQ(st.firstFailureOutcome, sched::Outcome::Deadlock);
}

}  // namespace

// For every registry scenario: DPOR preserves the deadlock-state set and
// the canonical lex-min failing witness of the bounded full enumeration,
// explores strictly fewer runs, and does all of it identically at 1, 2
// and 8 workers.
TEST(SchedDporTest, MatchesFullEnumerationPerScenario) {
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    const std::size_t depth = depthFor(sc.name);
    ASSERT_NE(depth, 0u) << "scenario '" << sc.name
                         << "' has no calibrated DPOR test depth";
    const Exploration none =
        explore(sc, Reduction::None, depth, 1, /*canonicalizeFailures=*/true);
    ASSERT_TRUE(none.stats.exhausted) << sc.name;

    for (std::size_t workers : kWorkerCounts) {
      SCOPED_TRACE(std::string(sc.name) + " workers=" +
                   std::to_string(workers));
      const Exploration dpor = explore(sc, Reduction::Dpor, depth, workers,
                                       /*canonicalizeFailures=*/false);
      ASSERT_TRUE(dpor.stats.exhausted);
      EXPECT_EQ(dpor.deadlockSigs, none.deadlockSigs);
      EXPECT_EQ(dpor.stats.firstFailure, none.minCanonicalFailure);
      if (expectStrictReduction(sc.name)) {
        EXPECT_LT(dpor.stats.runs, none.stats.runs);
      } else {
        EXPECT_LE(dpor.stats.runs, none.stats.runs);
      }
      if (!none.minCanonicalFailure.empty()) {
        EXPECT_EQ(dpor.stats.firstFailureOutcome,
                  none.stats.firstFailureOutcome);
      }
    }
  }
}

// DPOR's canonical witness is a *feasible* schedule: replaying it
// reproduces the reported failure even though DPOR itself may never have
// executed that exact interleaving.
TEST(SchedDporTest, CanonicalWitnessReplaysToReportedFailure) {
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    const Exploration dpor = explore(sc, Reduction::Dpor, depthFor(sc.name),
                                     1, /*canonicalizeFailures=*/false);
    if (dpor.stats.firstFailure.empty()) continue;
    SCOPED_TRACE(sc.name);
    const sched::RunResult rerun = replay(sc, dpor.stats.firstFailure);
    EXPECT_EQ(rerun.outcome, dpor.stats.firstFailureOutcome);
    // A canonical schedule is a fixpoint of canonicalization.
    EXPECT_EQ(sched::canonicalTraceWitness(rerun), dpor.stats.firstFailure);
  }
}

// Determinism: the DPOR frontier is claimed exactly-once through atomic
// masks on the shared prefix tree, so every Stats counter — not just the
// failure set — is independent of the worker count.
TEST(SchedDporTest, StatsDeterministicAcrossWorkerCounts) {
  const scenarios::NamedScenario* sc = scenarios::find("ff_t5_small");
  ASSERT_NE(sc, nullptr);
  const Exploration base =
      explore(*sc, Reduction::Dpor, 7, 1, /*canonicalizeFailures=*/false);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(workers);
    const Exploration again = explore(*sc, Reduction::Dpor, 7, workers,
                                      /*canonicalizeFailures=*/false);
    EXPECT_EQ(again.stats.runs, base.stats.runs);
    EXPECT_EQ(again.stats.deadlocks, base.stats.deadlocks);
    EXPECT_EQ(again.stats.dporBacktracks, base.stats.dporBacktracks);
    EXPECT_EQ(again.stats.prunedBranches, base.stats.prunedBranches);
    EXPECT_EQ(again.stats.sleepBlockedRuns, base.stats.sleepBlockedRuns);
    EXPECT_EQ(again.stats.firstFailure, base.stats.firstFailure);
    EXPECT_EQ(again.deadlockSigs, base.deadlockSigs);
  }
}

// Two threads touching disjoint variables form a single Mazurkiewicz
// trace: sleep sets collapse the whole tree to exactly one run with no
// backtracks, while full enumeration pays for every interleaving.
TEST(SchedDporTest, DisjointThreadsCollapseToOneRun) {
  const scenarios::NamedScenario* sc = scenarios::find("disjoint");
  ASSERT_NE(sc, nullptr);
  const Exploration dpor =
      explore(*sc, Reduction::Dpor, 8, 1, /*canonicalizeFailures=*/false);
  EXPECT_EQ(dpor.stats.runs, 1u);
  EXPECT_EQ(dpor.stats.dporBacktracks, 0u);
  EXPECT_TRUE(dpor.stats.exhausted);

  // Dependent-step scenarios do backtrack — the counter is live.
  const scenarios::NamedScenario* lo = scenarios::find("lock_order");
  ASSERT_NE(lo, nullptr);
  const Exploration lodpor =
      explore(*lo, Reduction::Dpor, 8, 1, /*canonicalizeFailures=*/false);
  EXPECT_GT(lodpor.stats.dporBacktracks, 0u);
  EXPECT_EQ(lodpor.stats.dporBacktracks + 1, lodpor.stats.runs);
}

// Unbounded exploration (no branch-depth limit) on scenarios whose full
// tree is tractable: here DPOR owes the *exact* failure semantics of full
// enumeration, with no bounded-POR caveat.
TEST(SchedDporTest, UnboundedEquivalenceOnTractableScenarios) {
  for (const char* name : {"lock_order", "disjoint"}) {
    const scenarios::NamedScenario* sc = scenarios::find(name);
    ASSERT_NE(sc, nullptr);
    SCOPED_TRACE(name);
    const Exploration none =
        explore(*sc, Reduction::None, static_cast<std::size_t>(-1), 1,
                /*canonicalizeFailures=*/true);
    const Exploration dpor =
        explore(*sc, Reduction::Dpor, static_cast<std::size_t>(-1), 1,
                /*canonicalizeFailures=*/false);
    ASSERT_TRUE(none.stats.exhausted);
    ASSERT_TRUE(dpor.stats.exhausted);
    EXPECT_EQ(dpor.deadlockSigs, none.deadlockSigs);
    EXPECT_EQ(dpor.stats.firstFailure, none.minCanonicalFailure);
    EXPECT_LT(dpor.stats.runs, none.stats.runs);
  }
}

// A sleep-blocked run ends at an all-asleep decision point with no outcome:
// it is exactly a run that is neither completed, deadlocked, step-limited
// nor exceptional, and the explorer reports how many there were.
TEST(SchedDporTest, SleepBlockedRunsAreTheRunsWithoutAnOutcome) {
  const scenarios::NamedScenario* sc = scenarios::find("ff_t5_small");
  ASSERT_NE(sc, nullptr);
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 200000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = 10;  // shallower bounds block no run here
  eo.reduction = Reduction::Dpor;
  confail::obs::Registry metrics;
  eo.metrics = &metrics;
  const sched::ExhaustiveExplorer::Stats st =
      sched::ExhaustiveExplorer(eo).explore(sc->fn);
  ASSERT_TRUE(st.exhausted);
  EXPECT_GT(st.sleepBlockedRuns, 0u);
  EXPECT_EQ(st.sleepBlockedRuns, st.runs - st.completed - st.deadlocks -
                                     st.stepLimited - st.exceptions);
  EXPECT_LE(st.sleepBlockedRuns, st.prunedBranches);
  EXPECT_EQ(metrics.counter("explorer.sleep_blocked_runs").value(),
            st.sleepBlockedRuns);

  // Without sleep sets no run is ever blocked.
  eo.reduction = Reduction::None;
  eo.maxBranchDepth = 6;
  eo.metrics = nullptr;
  EXPECT_EQ(sched::ExhaustiveExplorer(eo).explore(sc->fn).sleepBlockedRuns,
            0u);
}

// The ff_t5 trees are pinned to the answers recorded before the explorer's
// per-run costs were cut: any change to the scheduler, the race analysis or
// the checkpointing that alters a single counter fails here.  Replay (the
// differential oracle) must agree with the incremental path; it runs on 4
// workers to keep its OS-thread churn short (about 4 s instead of 12 s).
TEST(SchedDporTest, PinnedFfT5Depth14ReplayAndIncremental) {
  if (!sched::fibersSupported()) GTEST_SKIP() << kNoFibers;
  expectPinned(kFfT5Depth14, 4, /*incremental=*/false);
  expectPinned(kFfT5Depth14, 1, /*incremental=*/true);
}

// Worker determinism under repetition: 4-worker incremental explorations
// race their claims differently every time, and must still agree on every
// counter, every time.
TEST(SchedDporTest, PinnedFfT5Depth14RepeatedAtFourWorkers) {
  if (!sched::fibersSupported()) GTEST_SKIP() << kNoFibers;
  for (int rep = 0; rep < 20; ++rep) {
    SCOPED_TRACE("repetition " + std::to_string(rep));
    expectPinned(kFfT5Depth14, 4, /*incremental=*/true);
    if (HasFailure()) break;
  }
}

// The benchmark's tree, with all 7 deadlock states, at 1 and 4 workers.
TEST(SchedDporTest, PinnedFfT5Depth18AtOneAndFourWorkers) {
  if (!sched::fibersSupported()) GTEST_SKIP() << kNoFibers;
  expectPinned(kFfT5Depth18, 1, /*incremental=*/true);
  expectPinned(kFfT5Depth18, 4, /*incremental=*/true);
}
