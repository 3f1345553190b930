// The gen subsystem: IR well-formedness, generator determinism (the
// property tests of docs/fuzzing.md), and the interpreter end-to-end on the
// exploration substrate, including worker-count determinism of generated
// programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "confail/gen/fuzz.hpp"
#include "confail/gen/generator.hpp"
#include "confail/gen/interpret.hpp"
#include "confail/gen/ir.hpp"
#include "confail/gen/oracle.hpp"
#include "confail/obs/json.hpp"
#include "confail/sched/explorer.hpp"

namespace gen = confail::gen;
namespace sched = confail::sched;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

using gen::Op;
using gen::OpKind;

gen::Program oneThread(std::vector<Op> ops, std::uint8_t monitors = 1,
                       std::uint8_t vars = 1) {
  gen::Program p;
  p.monitors = monitors;
  p.vars = vars;
  p.threads.push_back(gen::ThreadIR{std::move(ops)});
  return p;
}

sched::ExhaustiveExplorer::Stats explore(const gen::Program& p,
                                         std::size_t workers = 1,
                                         std::size_t depth = 4) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 200000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = depth;
  eo.workers = workers;
  sched::ExhaustiveExplorer ex(eo);
  return ex.explore([&p](sched::VirtualScheduler& s) { gen::interpret(p, s, {}); },
                    [](const std::vector<sched::ThreadId>&,
                       const sched::RunResult&) { return true; });
}

}  // namespace

// ---- IR validation ---------------------------------------------------------

TEST(GenIr, AcceptsMinimalSelfWait) {
  const gen::Program p = oneThread(
      {{OpKind::Lock, 0}, {OpKind::Wait, 0}, {OpKind::Unlock, 0}});
  std::string why;
  EXPECT_TRUE(p.validate(&why)) << why;
  EXPECT_EQ(p.opCount(), 3u);
  EXPECT_TRUE(p.has(OpKind::Wait));
  EXPECT_FALSE(p.monitorShared());
}

TEST(GenIr, RejectsUnmatchedUnlock) {
  std::string why;
  EXPECT_FALSE(oneThread({{OpKind::Unlock, 0}}).validate(&why));
  EXPECT_NE(why.find("unlock"), std::string::npos) << why;
}

TEST(GenIr, RejectsNonInnermostUnlock) {
  const gen::Program p = oneThread({{OpKind::Lock, 0},
                                    {OpKind::Lock, 1},
                                    {OpKind::Unlock, 0},
                                    {OpKind::Unlock, 1}},
                                   /*monitors=*/2);
  EXPECT_FALSE(p.validate());
}

TEST(GenIr, RejectsWaitWithoutHoldingMonitor) {
  std::string why;
  EXPECT_FALSE(oneThread({{OpKind::Wait, 0}}).validate(&why));
  EXPECT_NE(why.find("holding"), std::string::npos) << why;
}

TEST(GenIr, RejectsLockHeldAtThreadEnd) {
  std::string why;
  EXPECT_FALSE(oneThread({{OpKind::Lock, 0}}).validate(&why));
  EXPECT_NE(why.find("thread end"), std::string::npos) << why;
}

TEST(GenIr, RejectsEmptyLoopBody) {
  const gen::Program p =
      oneThread({{OpKind::LoopBegin, 0, 2}, {OpKind::LoopEnd, 0}});
  std::string why;
  EXPECT_FALSE(p.validate(&why));
  EXPECT_NE(why.find("empty loop"), std::string::npos) << why;
}

TEST(GenIr, RejectsLockUnbalancedLoopBody) {
  const gen::Program p = oneThread({{OpKind::LoopBegin, 0, 2},
                                    {OpKind::Lock, 0},
                                    {OpKind::LoopEnd, 0},
                                    {OpKind::Unlock, 0}});
  EXPECT_FALSE(p.validate());
}

TEST(GenIr, RejectsUnlockCrossingLoopBoundary) {
  const gen::Program p = oneThread({{OpKind::Lock, 0},
                                    {OpKind::LoopBegin, 0, 1},
                                    {OpKind::Unlock, 0},
                                    {OpKind::LoopEnd, 0}});
  std::string why;
  EXPECT_FALSE(p.validate(&why));
  EXPECT_NE(why.find("loop boundary"), std::string::npos) << why;
}

TEST(GenIr, RejectsZeroIterationLoop) {
  const gen::Program p = oneThread(
      {{OpKind::LoopBegin, 0, 0}, {OpKind::Yield, 0}, {OpKind::LoopEnd, 0}});
  EXPECT_FALSE(p.validate());
}

TEST(GenIr, RejectsOutOfRangeObjectIndices) {
  EXPECT_FALSE(oneThread({{OpKind::Lock, 5}, {OpKind::Unlock, 5}}).validate());
  EXPECT_FALSE(oneThread({{OpKind::Read, 9}}).validate());
}

TEST(GenIr, RejectsTooDeepLockNesting) {
  std::vector<Op> ops;
  for (std::uint8_t i = 0; i < gen::kMaxLockNest + 1; ++i) {
    ops.push_back({OpKind::Lock, 0});
  }
  for (std::uint8_t i = 0; i < gen::kMaxLockNest + 1; ++i) {
    ops.push_back({OpKind::Unlock, 0});
  }
  EXPECT_FALSE(oneThread(std::move(ops)).validate());
}

TEST(GenIr, MonitorSharedNeedsTwoLockingThreads) {
  gen::Program p = oneThread({{OpKind::Lock, 0}, {OpKind::Unlock, 0}});
  EXPECT_FALSE(p.monitorShared());
  p.threads.push_back(
      gen::ThreadIR{{{OpKind::Lock, 0}, {OpKind::Unlock, 0}}});
  EXPECT_TRUE(p.monitorShared());
}

// ---- generator determinism (property tests) --------------------------------

TEST(GenGenerator, SameSeedAndConfigIsByteIdentical) {
  const gen::GenConfig cfg;
  for (std::uint64_t seed : {0ull, 1ull, 17ull, 123ull, 9999ull}) {
    const gen::Program a = gen::generate(seed, cfg);
    const gen::Program b = gen::generate(seed, cfg);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
  }
}

TEST(GenGenerator, DistinctSeedsDrawDistinctPrograms) {
  const gen::GenConfig cfg;
  std::set<std::string> renders;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    gen::Program p = gen::generate(seed, cfg);
    p.seed = 0;  // exclude the header line from the comparison
    renders.insert(p.render());
  }
  // Collisions are possible in principle but must be rare.
  EXPECT_GE(renders.size(), 30u);
}

TEST(GenGenerator, ConfigIsPartOfTheStream) {
  gen::GenConfig a;
  gen::GenConfig b;
  b.maxOpsPerThread = a.maxOpsPerThread + 2;
  EXPECT_NE(a.streamTag(), b.streamTag());
  gen::GenConfig c;
  c.cleanOnly = true;
  EXPECT_NE(a.streamTag(), c.streamTag());
}

TEST(GenGenerator, EveryDefaultTierProgramValidates) {
  const gen::GenConfig cfg;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const gen::Program p = gen::generate(seed, cfg);
    std::string why;
    EXPECT_TRUE(p.validate(&why))
        << "seed " << seed << ": " << why << "\n" << p.render();
    EXPECT_GE(p.threads.size(), 2u);
  }
}

TEST(GenGenerator, CleanTierIsStructurallyBenign) {
  gen::GenConfig cfg;
  cfg.cleanOnly = true;
  cfg.allowWaitNotify = false;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const gen::Program p = gen::generate(seed, cfg);
    std::string why;
    ASSERT_TRUE(p.validate(&why)) << "seed " << seed << ": " << why;
    EXPECT_FALSE(p.has(OpKind::Wait)) << p.render();
    EXPECT_FALSE(p.has(OpKind::Notify)) << p.render();
    EXPECT_FALSE(p.has(OpKind::NotifyAll)) << p.render();
    // Ascending lock order (deadlock-free) and every access guarded by the
    // var's designated monitor (race-free): walk each thread's lock stack.
    for (const gen::ThreadIR& t : p.threads) {
      std::vector<std::uint8_t> stack;
      for (const Op& op : t.ops) {
        if (op.kind == OpKind::Lock) {
          if (!stack.empty()) {
            EXPECT_LT(stack.back(), op.obj) << "seed " << seed << "\n"
                                            << p.render();
          }
          stack.push_back(op.obj);
        } else if (op.kind == OpKind::Unlock) {
          ASSERT_FALSE(stack.empty());
          stack.pop_back();
        } else if (op.kind == OpKind::Read || op.kind == OpKind::Write) {
          const std::uint8_t guard =
              static_cast<std::uint8_t>(op.obj % p.monitors);
          EXPECT_NE(std::find(stack.begin(), stack.end(), guard), stack.end())
              << "seed " << seed << " unguarded v" << int(op.obj) << "\n"
              << p.render();
        }
      }
    }
  }
}

// ---- interpreter end-to-end ------------------------------------------------

TEST(GenInterpret, SelfWaitDeadlocksOnItsOnlySchedule) {
  const gen::Program p = oneThread(
      {{OpKind::Lock, 0}, {OpKind::Wait, 0}, {OpKind::Unlock, 0}});
  const auto st = explore(p);
  EXPECT_TRUE(st.exhausted);
  EXPECT_EQ(st.deadlocks, st.runs);
  EXPECT_GE(st.runs, 1u);
}

TEST(GenInterpret, CleanTierProgramsCompleteOnEverySchedule) {
  gen::GenConfig cfg;
  cfg.cleanOnly = true;
  cfg.allowWaitNotify = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const gen::Program p = gen::generate(seed, cfg);
    const auto st = explore(p);
    ASSERT_TRUE(st.exhausted) << "seed " << seed;
    EXPECT_EQ(st.completed, st.runs) << "seed " << seed << "\n" << p.render();
    EXPECT_EQ(st.deadlocks, 0u);
    EXPECT_EQ(st.exceptions, 0u);
  }
}

TEST(GenInterpret, LoopsExecuteTheirIterationCount) {
  // A loop writing v0 twice from one thread: final shared-var value is
  // observable through the schedule count being 1 (single thread) and the
  // run completing — the loop must terminate after exactly `iters` rounds.
  const gen::Program p = oneThread({{OpKind::LoopBegin, 0, 2},
                                    {OpKind::Lock, 0},
                                    {OpKind::Write, 0},
                                    {OpKind::Unlock, 0},
                                    {OpKind::LoopEnd, 0}});
  ASSERT_TRUE(p.validate());
  const auto st = explore(p);
  EXPECT_TRUE(st.exhausted);
  EXPECT_EQ(st.completed, st.runs);
}

TEST(GenInterpret, WorkerCountsProduceIdenticalSummaries) {
  const gen::GenConfig cfg;
  for (std::uint64_t seed : {0ull, 5ull, 9ull}) {
    const gen::Program p = gen::generate(seed, cfg);
    const auto base = explore(p, 1);
    ASSERT_TRUE(base.exhausted) << "seed " << seed;
    for (std::size_t workers : {2u, 8u}) {
      const auto st = explore(p, workers);
      EXPECT_EQ(st.runs, base.runs) << "seed " << seed << " w" << workers;
      EXPECT_EQ(st.completed, base.completed)
          << "seed " << seed << " w" << workers;
      EXPECT_EQ(st.deadlocks, base.deadlocks)
          << "seed " << seed << " w" << workers;
      EXPECT_EQ(st.stepLimited, base.stepLimited)
          << "seed " << seed << " w" << workers;
      EXPECT_EQ(st.exceptions, base.exceptions)
          << "seed " << seed << " w" << workers;
      EXPECT_TRUE(st.exhausted);
    }
  }
}

TEST(GenInterpret, AsScenarioComputesCapabilityFlags) {
  const gen::GenConfig cfg;
  const gen::Program p = gen::generate(54, cfg);  // has lock + wait + notify
  ASSERT_TRUE(p.has(OpKind::Wait));
  const auto sc = gen::asScenario(p, "fuzz_54");
  EXPECT_EQ(sc.name, "fuzz_54");
  EXPECT_TRUE(sc.faultSeeded);
  EXPECT_TRUE(sc.usesMonitor);
  EXPECT_TRUE(sc.usesWaitNotify);
  EXPECT_FALSE(sc.hasBuffer);
  ASSERT_TRUE(static_cast<bool>(sc.fn));

  // The wrapped scenario must drive the explorer exactly like interpret().
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 200000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = 4;
  sched::ExhaustiveExplorer ex(eo);
  const auto st =
      ex.explore(sc.fn, [](const std::vector<sched::ThreadId>&,
                           const sched::RunResult&) { return true; });
  const auto direct = explore(p);
  EXPECT_EQ(st.runs, direct.runs);
  EXPECT_EQ(st.deadlocks, direct.deadlocks);
}

// ---- oracle harness plumbing ----------------------------------------------

TEST(GenOracle, OnlyOracleRestrictsToOneCheck) {
  gen::OracleConfig oc;
  const gen::OracleConfig one = gen::onlyOracle(oc, "worker-determinism");
  EXPECT_FALSE(one.checkIncremental);
  EXPECT_FALSE(one.checkReductions);
  EXPECT_TRUE(one.checkWorkers);
  EXPECT_FALSE(one.checkClean);
  EXPECT_FALSE(one.checkInjection);
  const gen::OracleConfig none = gen::onlyOracle(oc, "no-such-oracle");
  EXPECT_FALSE(none.checkIncremental && none.checkWorkers);
}

TEST(GenOracle, PassesOnAKnownGoodSeedAndSabotageTrips) {
  const gen::GenConfig cfg;
  const gen::Program p = gen::generate(0, cfg);  // deadlocks within bounds
  gen::OracleConfig oc;
  oc.checkReductions = false;  // keep the unit test fast
  oc.checkInjection = false;
  const auto clean = gen::runOracles(p, oc);
  EXPECT_TRUE(clean.ok()) << (clean.firstFailure() != nullptr
                                  ? clean.firstFailure()->detail
                                  : "");
  gen::OracleConfig bad = oc;
  bad.sabotage = gen::Sabotage::DropDeadlocks;
  const auto tripped = gen::runOracles(p, bad);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.firstFailure()->oracle, "incremental-vs-replay");
}

// confail.fuzz.v1 reports skips per oracle next to the total, over the
// same campaign as `confail fuzz --seeds 0..40` (both tiers).  Sanitized
// builds run 40-300x slower, so there it takes seeds 0..2 (4 skips over
// three oracles natively) to stay well inside the test timeout.
TEST(GenFuzz, PerOracleSkipsSumToTheTotal) {
  gen::FuzzOptions opts;
  opts.seedBegin = 0;
  opts.seedEnd = kSanitized ? 2 : 40;
  opts.oracle.checkClean = true;
  const gen::FuzzReport report = gen::runFuzz(opts);
  const confail::obs::JsonValue doc = confail::obs::parseJson(report.toJson());
  const confail::obs::JsonValue* total = doc.get("oracle_skips");
  const confail::obs::JsonValue* byOracle = doc.get("oracle_skips_by_oracle");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(byOracle, nullptr);
  ASSERT_TRUE(byOracle->isObject());
  double sum = 0.0;
  for (const auto& [oracle, skips] : byOracle->object) {
    EXPECT_NE(std::find(gen::oracleNames().begin(), gen::oracleNames().end(),
                        oracle),
              gen::oracleNames().end())
        << oracle;
    sum += skips.number;
  }
  EXPECT_GT(total->number, 0.0);
  EXPECT_EQ(sum, total->number);
  EXPECT_EQ(byOracle->object.size(), gen::oracleNames().size());
}
