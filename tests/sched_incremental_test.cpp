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
// A run whose nearest checkpoint is a shallower ancestor restores it and
// replays the gap: the result is still the one a from-scratch replay gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/fingerprint.hpp"
#include "confail/sched/incremental.hpp"
#include "confail/sched/prefix_tree.hpp"
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
                    bool incremental) {
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

// Injector state is part of the snapshot protocol: a restored branch must
// observe exactly the injected-fault state its prefix produced, and the
// per-run trace must be indistinguishable from a from-scratch execution —
// including the trailing events emitted while residual threads unwind.
TEST(SchedIncrementalTest, InjectorStateAndTraceSurviveRestore) {
  const scenarios::NamedScenario* fig2 = scenarios::find("fig2");
  ASSERT_NE(fig2, nullptr);
  const inject::InjectionPlan plan = inject::defaultPlanFor(
      confail::taxonomy::FailureClass::EF_T4, *fig2);

  // Per schedule: deviations applied and the recorded events.
  using Events = std::vector<confail::events::Event>;
  using RunSig = std::map<std::vector<sched::ThreadId>,
                          std::pair<std::uint64_t, Events>>;
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
      sigs[view.schedule] = {
          view.deviationsApplied,
          view.trace != nullptr ? view.trace->events() : Events{}};
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
// the live DFS frontier instead of growing with the runs so far.  On ff_t5
// at branch depth 14 that frontier needs a fraction of one MiB, while
// keeping every checkpoint would retain tens of MB.
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
  }
}

// The prefix arena recycles a dead node's slot, and on several workers it
// can republish the slot as a different node before the worker holding a
// checkpoint for the old one drops it.  The checkpoint cache keys on the
// slot generation too, so the stale checkpoint — which froze a different
// prefix — is never restored: the new node's run restores its parent's
// checkpoint instead and is the run a from-scratch replay makes.
TEST(SchedIncrementalTest, CheckpointOfARecycledSlotIsNeverRestored) {
  if (!sched::fibersSupported()) {
    GTEST_SKIP() << "no fiber support: nothing is checkpointed";
  }
  const scenarios::NamedScenario* sc = scenarios::find("fig2");
  ASSERT_NE(sc, nullptr);
  sched::VirtualScheduler::Options ro;
  ro.maxSteps = 20000;
  constexpr std::size_t kBranchLimit = 64;
  sched::IncrementalRunner runner(sc->fn, ro);
  ASSERT_TRUE(runner.usable());
  sched::PrefixArena arena(1);
  const sched::PrefixNode* root = arena.root();
  root->retain();

  sched::RunResult first;
  std::vector<sched::ThreadId> prefix;
  ASSERT_TRUE(runner.run(first, root, prefix, confail::events::kNoThread,
                         kBranchLimit, /*dporMode=*/false));
  // A depth d with a choice at d (the run checkpoints there) and at d-1 (a
  // sibling of the spine node at d exists).
  std::size_t d = 0;
  for (std::size_t i = 1; i < first.choiceSets.size() && i < kBranchLimit;
       ++i) {
    if (first.choiceSets[i - 1].size() > 1 && first.choiceSets[i].size() > 1) {
      d = i;
      break;
    }
  }
  ASSERT_GT(d, 0u);

  // The run's spine down to depth d, each node bound to the checkpoint the
  // run took there, as the explorer builds it.
  const sched::PrefixNode* parent = root;
  for (std::size_t i = 0; i + 1 < d; ++i) {
    sched::PrefixNode* n = arena.child(0, parent, first.schedule[i]);
    runner.bind(n);
    parent = n;
  }
  sched::PrefixNode* spine = arena.child(0, parent, first.schedule[d - 1]);
  runner.bind(spine);

  // The spine node dies (no child hangs below it) and its slot is reused
  // for its sibling, which is queued before the runner looks again.
  sched::ThreadId alt = confail::events::kNoThread;
  for (sched::ThreadId t : first.choiceSets[d - 1]) {
    if (t != first.schedule[d - 1]) alt = t;
  }
  arena.recycle(0, spine);
  sched::PrefixNode* sibling = arena.child(0, parent, alt);
  ASSERT_EQ(sibling, spine) << "the dead slot was not reused";
  sibling->retain();

  sched::materializePrefix(sibling, prefix);
  const std::uint64_t avoidedBefore = runner.tally().replayStepsAvoided;
  sched::RunResult second;
  ASSERT_TRUE(runner.run(second, sibling, prefix, confail::events::kNoThread,
                         kBranchLimit, /*dporMode=*/false));
  // Restored at the parent (depth d-1), not at the stale depth-d checkpoint.
  EXPECT_EQ(runner.tally().replayStepsAvoided - avoidedBefore, d - 1);

  sched::PrefixReplayStrategy replayStrategy(prefix);
  sched::VirtualScheduler replayed(replayStrategy, ro);
  sc->fn(replayed);
  const sched::RunResult reference = replayed.run();
  ASSERT_GE(second.schedule.size(), d);
  EXPECT_EQ(second.schedule[d - 1], alt);
  EXPECT_EQ(second.schedule, reference.schedule);
  EXPECT_EQ(second.outcome, reference.outcome);
}

// Gap replay, the one fallback: a run whose nearest checkpointed ancestor
// sits k steps down restores it and replays steps [k, d) through the same
// strategy.  Stolen work takes this path whenever its own session never
// checkpointed the item's parent.  Only the root and one spine node at
// depth k are bound here, so a depth-d child must restore at k, and its
// result must be the one a from-scratch replay of its prefix gives, with
// and without the DPOR sleep window.
TEST(SchedIncrementalTest, RunReplaysTheGapBelowAShallowerCheckpoint) {
  if (!sched::fibersSupported()) {
    GTEST_SKIP() << "no fiber support: nothing is checkpointed";
  }
  const scenarios::NamedScenario* sc = scenarios::find("fig2");
  ASSERT_NE(sc, nullptr);
  constexpr std::size_t kBranchLimit = 64;
  for (bool dporMode : {false, true}) {
    SCOPED_TRACE(dporMode ? "dpor" : "no dpor");
    sched::VirtualScheduler::Options ro;
    ro.maxSteps = 20000;
    ro.captureState = dporMode;  // the sleep wake rule reads footprints
    sched::IncrementalRunner runner(sc->fn, ro);
    ASSERT_TRUE(runner.usable());
    sched::PrefixArena arena(1);
    const sched::PrefixNode* root = arena.root();
    root->retain();

    sched::RunResult first;
    std::vector<sched::ThreadId> prefix;
    ASSERT_TRUE(runner.run(first, root, prefix, confail::events::kNoThread,
                           kBranchLimit, dporMode));
    // k: the first choice point past the root (the run checkpoints there).
    // d: at least two steps deeper, with a choice at d-1 to branch on.
    const std::size_t limit = std::min(first.choiceSets.size(), kBranchLimit);
    std::size_t k = 1;
    while (k < limit && first.choiceSets[k].size() < 2) ++k;
    std::size_t d = k + 2;
    while (d <= limit && first.choiceSets[d - 1].size() < 2) ++d;
    ASSERT_LE(d, limit);

    // The run's spine down to depth d-1; only the depth-k node is bound.
    const sched::PrefixNode* parent = root;
    for (std::size_t i = 0; i + 1 < d; ++i) {
      sched::PrefixNode* n = arena.child(0, parent, first.schedule[i]);
      if (n->depth == k) runner.bind(n);
      parent = n;
    }
    // The child branches off the spine at d-1; under DPOR it sleeps on the
    // spine's step there, as the explorer's branch would.
    sched::ThreadId alt = confail::events::kNoThread;
    for (sched::ThreadId t : first.choiceSets[d - 1]) {
      if (t != first.schedule[d - 1]) alt = t;
    }
    sched::PrefixNode* child = arena.child(0, parent, alt);
    if (dporMode) {
      const sched::SleepEntry spine{first.schedule[d - 1],
                                    first.stepFootprints[d - 1]};
      child->sleep = arena.sleepSet(0, {}, &spine);
    }
    child->retain();

    sched::materializePrefix(child, prefix);
    const std::uint64_t avoidedBefore = runner.tally().replayStepsAvoided;
    sched::RunResult gap;
    ASSERT_TRUE(runner.run(gap, child, prefix, confail::events::kNoThread,
                           kBranchLimit, dporMode));
    EXPECT_EQ(runner.tally().replayStepsAvoided - avoidedBefore, k);

    sched::PrefixReplayStrategy replayStrategy(prefix);
    sched::VirtualScheduler::Options replayOpts = ro;
    replayOpts.setSleepWindow(
        dporMode ? child->sleep : std::span<const sched::SleepEntry>(), d,
        kBranchLimit);
    sched::VirtualScheduler replayed(replayStrategy, replayOpts);
    sc->fn(replayed);
    const sched::RunResult reference = replayed.run();
    ASSERT_GE(gap.schedule.size(), d);
    EXPECT_EQ(gap.schedule[d - 1], alt);
    EXPECT_EQ(gap.outcome, reference.outcome);
    EXPECT_EQ(gap.steps, reference.steps);
    EXPECT_EQ(gap.schedule, reference.schedule);
    EXPECT_EQ(gap.fingerprints, reference.fingerprints);
    ASSERT_EQ(gap.choiceSets.size(), reference.choiceSets.size());
    for (std::size_t i = 0; i < gap.choiceSets.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(gap.choiceSets[i],
                                     reference.choiceSets[i]))
          << "choice set " << i;
    }
    ASSERT_EQ(gap.stepFootprints.size(), reference.stepFootprints.size());
    for (std::size_t i = 0; i < gap.stepFootprints.size(); ++i) {
      EXPECT_EQ(gap.stepFootprints[i].read, reference.stepFootprints[i].read);
      EXPECT_EQ(gap.stepFootprints[i].write,
                reference.stepFootprints[i].write);
      EXPECT_EQ(gap.stepFootprints[i].global,
                reference.stepFootprints[i].global);
    }
    EXPECT_EQ(gap.sleepPruned, reference.sleepPruned);
    EXPECT_EQ(deadlockSignature(gap), deadlockSignature(reference));
    EXPECT_EQ(gap.errorMessage, reference.errorMessage);
  }
}
