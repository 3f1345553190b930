// Incremental exploration (Options::incremental): differential equivalence
// against the prefix-replay path.
//
// The contract under test (see docs/exploration.md): resuming a branch from
// a copy-on-write checkpoint of its parent's state is an *implementation*
// strategy, not a semantic one — every observable of an exploration must be
// byte-identical to replaying each prefix from the root:
//   * run counts, outcome tallies, pruning/backtrack counters,
//   * the failure set (deadlock-state signatures),
//   * the canonical lexicographically-minimal failing witness,
//   * injected-fault state (deviationsApplied) and the captured trace,
// across every reduction mode and worker count.  Only the snapshot
// mechanism counters (snapshotRestores, replayStepsAvoided,
// snapshotPeakBytes) may differ — they count machinery, not tree shape.
//
// A deliberately tiny snapshot budget must degrade *performance only*: the
// runner falls back to prefix replay from the nearest retained checkpoint
// (the pinned root at worst) and all observables stay identical.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/fingerprint.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;
namespace inject = confail::inject;

namespace {

using Reduction = sched::ExhaustiveExplorer::Reduction;

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
  std::set<std::vector<sched::ThreadId>> schedules;
};

Exploration explore(const scenarios::NamedScenario& sc, Reduction reduction,
                    std::size_t maxDepth, std::size_t workers,
                    bool incremental,
                    std::size_t budgetBytes = 256ull * 1024 * 1024) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 200000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = maxDepth;
  eo.reduction = reduction;
  eo.workers = workers;
  eo.incremental = incremental;
  eo.snapshotBudgetBytes = budgetBytes;
  sched::ExhaustiveExplorer explorer(eo);
  Exploration out;
  out.stats = explorer.explore(
      sc.fn, [&](const std::vector<sched::ThreadId>& schedule,
                 const sched::RunResult& r) {
        out.schedules.insert(schedule);
        if (r.outcome == sched::Outcome::Deadlock) {
          out.deadlockSigs.insert(deadlockSignature(r));
        }
        return true;
      });
  return out;
}

/// Every observable that must not depend on the execution strategy.  The
/// snapshot mechanism counters are deliberately absent.
void expectEquivalent(const Exploration& inc, const Exploration& rep) {
  EXPECT_EQ(inc.stats.runs, rep.stats.runs);
  EXPECT_EQ(inc.stats.completed, rep.stats.completed);
  EXPECT_EQ(inc.stats.deadlocks, rep.stats.deadlocks);
  EXPECT_EQ(inc.stats.stepLimited, rep.stats.stepLimited);
  EXPECT_EQ(inc.stats.exceptions, rep.stats.exceptions);
  EXPECT_EQ(inc.stats.prunedBranches, rep.stats.prunedBranches);
  EXPECT_EQ(inc.stats.dedupedStates, rep.stats.dedupedStates);
  EXPECT_EQ(inc.stats.dporBacktracks, rep.stats.dporBacktracks);
  EXPECT_EQ(inc.stats.exhausted, rep.stats.exhausted);
  EXPECT_EQ(inc.stats.firstFailure, rep.stats.firstFailure);
  EXPECT_EQ(inc.stats.firstFailureOutcome, rep.stats.firstFailureOutcome);
  EXPECT_EQ(inc.deadlockSigs, rep.deadlockSigs);
  EXPECT_EQ(inc.schedules, rep.schedules);
}

std::size_t depthFor(const std::string& name) {
  // Calibrated depths exercise deep checkpoint chains.  Without fiber
  // support (sanitizer builds) incremental degrades to replay by design,
  // so the matrix compares replay against itself — shallower trees keep
  // that degraded-mode run inside the CI timeout (sanitized execution is
  // ~20x slower) without weakening the equivalence check it still makes.
  const std::size_t full = name == "fig2" ? 6 : 7;  // else ff_t5_small
  return sched::fibersSupported() ? full : full - 2;
}

constexpr Reduction kReductions[] = {Reduction::None, Reduction::Sleep,
                                     Reduction::Dpor};
constexpr std::size_t kWorkerCounts[] = {1, 2, 8};

const char* reductionName(Reduction r) {
  switch (r) {
    case Reduction::None: return "none";
    case Reduction::Sleep: return "sleep";
    case Reduction::Dpor: return "dpor";
  }
  return "?";
}

}  // namespace

// The headline differential: incremental ≡ replay on every observable,
// for {none, sleep, dpor} × {1, 2, 8} workers on fig2 and ff_t5_small.
TEST(SchedIncrementalTest, MatchesReplayAcrossModesAndWorkerCounts) {
  for (const char* name : {"fig2", "ff_t5_small"}) {
    const scenarios::NamedScenario* sc = scenarios::find(name);
    ASSERT_NE(sc, nullptr);
    const std::size_t depth = depthFor(name);
    for (Reduction reduction : kReductions) {
      // One replay baseline per (scenario, reduction); the replay path is
      // itself worker-count-deterministic (covered by the dpor suite).
      const Exploration rep =
          explore(*sc, reduction, depth, 1, /*incremental=*/false);
      ASSERT_TRUE(rep.stats.exhausted);
      for (std::size_t workers : kWorkerCounts) {
        SCOPED_TRACE(std::string(name) + " reduction=" +
                     reductionName(reduction) +
                     " workers=" + std::to_string(workers));
        const Exploration inc =
            explore(*sc, reduction, depth, workers, /*incremental=*/true);
        expectEquivalent(inc, rep);
      }
    }
  }
}

// The mechanism actually engages: with fibers available, deep branches are
// resumed from checkpoints instead of replayed, and the saved work is
// visible in the mechanism counters.
TEST(SchedIncrementalTest, SnapshotsEngageWhenFibersAvailable) {
  if (!sched::fibersSupported()) {
    GTEST_SKIP() << "no fiber support (sanitizer build?): incremental "
                    "exploration degrades to replay by design";
  }
  const scenarios::NamedScenario* sc = scenarios::find("ff_t5_small");
  ASSERT_NE(sc, nullptr);
  const Exploration inc =
      explore(*sc, Reduction::Dpor, 7, 1, /*incremental=*/true);
  EXPECT_GT(inc.stats.snapshotRestores, 0u);
  EXPECT_GT(inc.stats.replayStepsAvoided, 0u);
  EXPECT_GT(inc.stats.snapshotPeakBytes, 0u);

  const Exploration rep =
      explore(*sc, Reduction::Dpor, 7, 1, /*incremental=*/false);
  EXPECT_EQ(rep.stats.snapshotRestores, 0u);
  EXPECT_EQ(rep.stats.replayStepsAvoided, 0u);
  EXPECT_EQ(rep.stats.snapshotPeakBytes, 0u);
}

// Budget fallback: a snapshot budget too small to retain anything but the
// pinned root checkpoint must not change a single observable — branches
// fall back to prefix replay from the nearest retained snapshot.
TEST(SchedIncrementalTest, TinySnapshotBudgetFallsBackToReplay) {
  for (const char* name : {"fig2", "ff_t5_small"}) {
    const scenarios::NamedScenario* sc = scenarios::find(name);
    ASSERT_NE(sc, nullptr);
    const std::size_t depth = depthFor(name);
    const Exploration rep =
        explore(*sc, Reduction::Dpor, depth, 1, /*incremental=*/false);
    for (std::size_t budget : {std::size_t{1}, std::size_t{64} * 1024}) {
      SCOPED_TRACE(std::string(name) + " budget=" + std::to_string(budget));
      const Exploration inc = explore(*sc, Reduction::Dpor, depth, 2,
                                      /*incremental=*/true, budget);
      expectEquivalent(inc, rep);
    }
  }
}

// Injector state is part of the snapshot protocol: a restored branch must
// observe exactly the injected-fault state its prefix produced, and the
// per-run trace must be indistinguishable from a from-scratch execution —
// including the trailing events emitted while residual threads unwind.
TEST(SchedIncrementalTest, InjectorStateAndTraceSurviveRestore) {
  const scenarios::NamedScenario* fig2 = scenarios::find("fig2");
  ASSERT_NE(fig2, nullptr);
  const inject::InjectionPlan plan = inject::defaultPlanFor(
      confail::taxonomy::FailureClass::EF_T4, *fig2);

  using RunSig = std::map<std::vector<sched::ThreadId>, std::string>;
  auto signatures = [&](bool incremental, std::size_t workers) {
    sched::ExhaustiveExplorer::Options eo;
    eo.maxRuns = 500;
    eo.maxSteps = 2000;
    eo.maxBranchDepth = 4;
    eo.workers = workers;
    eo.incremental = incremental;
    inject::ExploreConfig cfg;
    cfg.scenario(*fig2).plan(plan).explorer(eo);
    RunSig sigs;
    (void)cfg.explore([&](const inject::RunView& view) {
      std::string s = "dev=" + std::to_string(view.deviationsApplied);
      if (view.trace != nullptr) {
        for (const auto& e : view.trace->events()) s += "\n" + e.toString();
      }
      sigs[view.schedule] = s;
      return true;
    });
    return sigs;
  };

  const RunSig replay = signatures(/*incremental=*/false, 1);
  ASSERT_FALSE(replay.empty());
  for (std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE(workers);
    EXPECT_EQ(signatures(/*incremental=*/true, workers), replay);
  }
}

namespace {
// Tells the compiler that `p`'s bytes may be read and written here, so it
// cannot fold the read-back check below away.
void escape(void* p) { asm volatile("" : : "r"(p) : "memory"); }
}  // namespace

// A snapshot captures the whole used stack, not just the frames near the
// stack pointer: a 64 KiB buffer written before a schedule point reads back
// intact in every branch restored past it, although the run that took the
// checkpoint scribbled over it before the restore.
TEST(SchedIncrementalTest, LargeStackBufferSurvivesRestore) {
  if (!sched::fibersSupported()) {
    GTEST_SKIP() << "no fiber support: nothing is restored";
  }
  constexpr std::size_t kBytes = 64 * 1024;
  auto program = [](sched::VirtualScheduler& s) {
    s.declareSnapshotSafe();
    for (unsigned seed : {7u, 11u}) {
      s.spawn("t" + std::to_string(seed), [&s, seed] {
        std::array<unsigned char, kBytes> buf;
        for (std::size_t i = 0; i < kBytes; ++i) {
          buf[i] = static_cast<unsigned char>(i * seed + seed);
        }
        escape(buf.data());
        s.yield();
        s.yield();
        escape(buf.data());
        for (std::size_t i = 0; i < kBytes; ++i) {
          if (buf[i] != static_cast<unsigned char>(i * seed + seed)) {
            throw std::runtime_error("stack byte " + std::to_string(i) +
                                     " lost across a restore");
          }
        }
        buf.fill(0xEE);
        escape(buf.data());
      });
    }
  };
  auto run = [&](bool incremental) {
    sched::ExhaustiveExplorer::Options eo;
    eo.incremental = incremental;
    return sched::ExhaustiveExplorer(eo).explore(program);
  };
  const sched::ExhaustiveExplorer::Stats inc = run(true);
  const sched::ExhaustiveExplorer::Stats rep = run(false);
  ASSERT_TRUE(inc.exhausted);
  EXPECT_GT(inc.snapshotRestores, 0u);
  EXPECT_EQ(inc.exceptions, 0u);
  EXPECT_EQ(inc.runs, rep.runs);
  EXPECT_EQ(inc.completed, rep.completed);
}

// Checkpoint lifetime: a checkpoint dies with the last work item queued or
// running in its prefix-tree subtree, so retained snapshot memory follows
// the live DFS frontier instead of growing until the byte budget evicts.
// On ff_t5 at branch depth 14 that frontier needs a fraction of one MiB,
// while keeping every checkpoint until eviction retains tens of MB.
TEST(SchedIncrementalTest, CheckpointsDieWithTheirSubtree) {
  if (!sched::fibersSupported()) {
    GTEST_SKIP() << "no fiber support: nothing is retained";
  }
  const scenarios::NamedScenario* sc = scenarios::find("ff_t5");
  ASSERT_NE(sc, nullptr);
  // The replay path is worker-count-deterministic (sched_dpor_test), so
  // its reference runs on 4 workers to keep its thread churn short.
  const Exploration rep = explore(*sc, Reduction::Dpor, 14, 4,
                                  /*incremental=*/false);
  ASSERT_TRUE(rep.stats.exhausted);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    sched::ExhaustiveExplorer::Options eo;
    eo.maxRuns = 200000;
    eo.maxSteps = 20000;
    eo.maxBranchDepth = 14;
    eo.reduction = Reduction::Dpor;
    eo.workers = workers;
    confail::obs::Registry metrics;
    eo.metrics = &metrics;
    const sched::ExhaustiveExplorer::Stats inc =
        sched::ExhaustiveExplorer(eo).explore(sc->fn);
    EXPECT_TRUE(inc.exhausted);
    EXPECT_EQ(inc.runs, rep.stats.runs);
    EXPECT_EQ(inc.completed, rep.stats.completed);
    EXPECT_EQ(inc.deadlocks, rep.stats.deadlocks);
    EXPECT_GT(inc.snapshotRestores, 0u);
    EXPECT_LE(inc.snapshotPeakBytes, std::size_t{4} * 1024 * 1024);
    EXPECT_EQ(metrics.counter("explorer.snapshot_evictions").value(), 0u);
  }
}
