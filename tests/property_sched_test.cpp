// Property tests for the virtual scheduler and explorer:
//   * replay fidelity: any recorded schedule replays to the identical
//     interleaving (swept over seeds and thread counts);
//   * explorer completeness: on a program of K independent single-yield
//     threads the number of distinct executions equals the number of
//     distinct interleavings (multinomial), and the explorer enumerates
//     exactly that many;
//   * strategies always pick from the runnable set;
//   * DPOR's last-access race lookup finds exactly the races the backward
//     scan it replaced finds, in the same order.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include <algorithm>

#include "confail/sched/explorer.hpp"
#include "confail/sched/race_index.hpp"
#include "confail/support/rng.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace sched = confail::sched;
using confail::events::ThreadId;
using sched::Outcome;
using sched::VirtualScheduler;

namespace {

struct ReplayParam {
  std::uint64_t seed;
  int threads;
  int yieldsPerThread;
};

std::string replayName(const testing::TestParamInfo<ReplayParam>& info) {
  return "seed" + std::to_string(info.param.seed) + "_t" +
         std::to_string(info.param.threads) + "_y" +
         std::to_string(info.param.yieldsPerThread);
}

// Each thread appends its letter then yields, repeatedly; the resulting
// word is a complete record of the interleaving.
std::string runWord(sched::Strategy& strategy, int threads, int yields,
                    sched::RunResult* outResult = nullptr) {
  VirtualScheduler s(strategy);
  std::string word;
  for (int t = 0; t < threads; ++t) {
    s.spawn(std::string(1, static_cast<char>('a' + t)),
            [&s, &word, t, yields] {
              for (int i = 0; i < yields; ++i) {
                word.push_back(static_cast<char>('a' + t));
                s.yield();
              }
            });
  }
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  if (outResult) *outResult = r;
  return word;
}

}  // namespace

class ReplaySweep : public testing::TestWithParam<ReplayParam> {};

TEST_P(ReplaySweep, RecordedScheduleReplaysIdentically) {
  const ReplayParam& p = GetParam();
  sched::RandomWalkStrategy random(p.seed);
  sched::RunResult original;
  std::string word1 = runWord(random, p.threads, p.yieldsPerThread, &original);

  sched::PrefixReplayStrategy replay(original.schedule);
  std::string word2 = runWord(replay, p.threads, p.yieldsPerThread);
  EXPECT_EQ(word1, word2);
}

TEST_P(ReplaySweep, SameSeedSameWordDifferentSeedUsuallyDiffers) {
  const ReplayParam& p = GetParam();
  sched::RandomWalkStrategy a(p.seed), b(p.seed), c(p.seed + 1000);
  std::string w1 = runWord(a, p.threads, p.yieldsPerThread);
  std::string w2 = runWord(b, p.threads, p.yieldsPerThread);
  std::string w3 = runWord(c, p.threads, p.yieldsPerThread);
  EXPECT_EQ(w1, w2);
  if (p.threads > 1 && p.yieldsPerThread >= 4) {
    EXPECT_NE(w1, w3) << "different seeds produced identical interleavings "
                         "(possible but vanishingly unlikely at this size)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ReplaySweep,
    testing::ValuesIn([] {
      std::vector<ReplayParam> v;
      for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        for (int threads : {1, 2, 3, 5}) {
          for (int yields : {1, 4, 9}) {
            v.push_back(ReplayParam{seed, threads, yields});
          }
        }
      }
      return v;
    }()),
    replayName);

// ---------------------------------------------------------------------------
// Explorer completeness against the closed-form interleaving count.
// ---------------------------------------------------------------------------

namespace {

struct ExploreParam {
  int threads;
  int yields;
};

std::string exploreName(const testing::TestParamInfo<ExploreParam>& info) {
  return "t" + std::to_string(info.param.threads) + "_y" +
         std::to_string(info.param.yields);
}

// Number of interleavings of `threads` sequences of length `steps` each:
// (threads*steps)! / (steps!)^threads.
std::uint64_t multinomial(int threads, int steps) {
  // Build iteratively to avoid overflow for the small sizes tested.
  std::uint64_t result = 1;
  int placed = 0;
  for (int t = 0; t < threads; ++t) {
    for (int k = 1; k <= steps; ++k) {
      result = result * static_cast<std::uint64_t>(placed + k) /
               static_cast<std::uint64_t>(k);
    }
    placed += steps;
  }
  return result;
}

}  // namespace

class ExplorerSweep : public testing::TestWithParam<ExploreParam> {};

TEST_P(ExplorerSweep, EnumeratesEveryDistinctInterleavingExactlyOnce) {
  const ExploreParam& p = GetParam();
  // Each thread does `yields` units of work, each unit = letter + yield.
  // Every decision point is a branch, so the explorer should enumerate
  // exactly multinomial(threads, yields) distinct words, each once.
  sched::ExhaustiveExplorer::Options opts;
  opts.maxRuns = 100000;
  sched::ExhaustiveExplorer explorer(opts);

  std::set<std::vector<ThreadId>> schedules;
  auto stats = explorer.explore(
      [&p](VirtualScheduler& s) {
        for (int t = 0; t < p.threads; ++t) {
          s.spawn(std::string(1, static_cast<char>('a' + t)),
                  [&s, yields = p.yields] {
                    for (int i = 0; i < yields; ++i) s.yield();
                  });
        }
      },
      [&schedules](const std::vector<ThreadId>& schedule,
                   const sched::RunResult&) {
        schedules.insert(schedule);
        return true;
      });

  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.completed, stats.runs);
  // The schedule fully determines the interleaving for this program, so
  // the number of distinct schedules must equal the closed-form count —
  // and every executed schedule must be distinct (no duplicated work).
  // Each thread is scheduled yields+1 times (each yield plus the final
  // run-to-completion segment), so the interleaving count is the
  // multinomial over segment sequences of length yields+1.
  EXPECT_EQ(stats.runs, multinomial(p.threads, p.yields + 1));
  EXPECT_EQ(schedules.size(), stats.runs);
}

INSTANTIATE_TEST_SUITE_P(
    SmallShapes, ExplorerSweep,
    testing::ValuesIn(std::vector<ExploreParam>{
        {1, 3},   // 1 interleaving
        {2, 1},   // C(4,2)   = 6
        {2, 2},   // C(6,3)   = 20
        {2, 3},   // C(8,4)   = 70
        {3, 1},   // 6!/2!^3  = 90
        {2, 4},   // C(10,5)  = 252
        {3, 2},   // 9!/3!^3  = 1680
    }),
    exploreName);

// ---------------------------------------------------------------------------
// Strategy contract: always pick from the runnable set (fuzzed).
// ---------------------------------------------------------------------------

class StrategyContractSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyContractSweep, AllStrategiesPickRunnableThreads) {
  const std::uint64_t seed = GetParam();
  confail::Xoshiro256 rng(seed);
  sched::RandomWalkStrategy random(seed);
  sched::RoundRobinStrategy rr;
  sched::PctStrategy pct(seed, 4, 200);
  for (ThreadId t = 0; t < 8; ++t) pct.onSpawn(t);

  for (int i = 0; i < 300; ++i) {
    // Random non-empty ascending subset of {0..7}.
    std::vector<ThreadId> runnable;
    for (ThreadId t = 0; t < 8; ++t) {
      if (rng.chance(0.4)) runnable.push_back(t);
    }
    if (runnable.empty()) runnable.push_back(static_cast<ThreadId>(rng.below(8)));

    for (sched::Strategy* st : std::initializer_list<sched::Strategy*>{
             &random, &rr, &pct}) {
      ThreadId pick = st->pick(runnable, static_cast<std::uint64_t>(i));
      EXPECT_TRUE(std::find(runnable.begin(), runnable.end(), pick) !=
                  runnable.end());
    }
  }
}

namespace {
std::string contractSeedName(const testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyContractSweep,
                         testing::Values(1ull, 2ull, 3ull, 4ull),
                         contractSeedName);

// ---------------------------------------------------------------------------
// DPOR race lookup: the last-access index against a backward scan
// ---------------------------------------------------------------------------

namespace {

/// A race of step `at`: (the racing step, its thread).
struct FoundRace {
  std::size_t at;
  sched::Race race;
  bool operator==(const FoundRace&) const = default;
};

/// The reference: for each step i >= from, walk back from the bound
/// min(i, bound) and report each other thread's latest step dependent with
/// step i, in the order the walk meets them.
std::vector<FoundRace> scanRaces(const std::vector<ThreadId>& s,
                                 const std::vector<sched::Footprint>& fp,
                                 std::size_t from, std::size_t bound) {
  std::vector<FoundRace> out;
  for (std::size_t i = from; i < s.size(); ++i) {
    std::set<ThreadId> seen{s[i]};
    for (std::size_t j = std::min(i, bound); j-- > 0;) {
      if (seen.count(s[j]) != 0 || !fp[j].dependentWith(fp[i])) continue;
      seen.insert(s[j]);
      out.push_back({i, sched::Race{static_cast<std::uint32_t>(j), s[j]}});
    }
  }
  return out;
}

/// The same races through LastAccessIndex, driven the way the explorer
/// drives it: steps below min(i, bound) are indexed as i grows.
std::vector<FoundRace> indexRaces(const std::vector<ThreadId>& s,
                                  const std::vector<sched::Footprint>& fp,
                                  std::size_t from, std::size_t bound) {
  ThreadId maxTid = 0;
  for (ThreadId t : s) maxTid = std::max(maxTid, t);
  sched::LastAccessIndex index;
  index.reset(static_cast<std::size_t>(maxTid) + 1);
  std::vector<FoundRace> out;
  std::vector<sched::Race> races;
  std::size_t indexed = 0;
  for (std::size_t i = from; i < s.size(); ++i) {
    for (; indexed < std::min(i, bound); ++indexed) {
      index.add(indexed, s[indexed], fp[indexed]);
    }
    races.clear();
    index.races(s[i], fp[i], races);
    for (const sched::Race& r : races) out.push_back({i, r});
  }
  return out;
}

}  // namespace

TEST(LastAccessIndexProperty, FindsTheRacesOfTheBackwardScanInOrder) {
  confail::Xoshiro256 rng(0x5eed2310);
  std::size_t racesChecked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // A handful of threads, with ids past the 64-bit masks in some trials.
    std::vector<ThreadId> ids;
    const std::size_t threads = 1 + rng.below(5);
    const ThreadId base = trial % 4 == 0 ? 60 + rng.below(80) : 0;
    for (std::size_t t = 0; t < threads; ++t) {
      ids.push_back(base + static_cast<ThreadId>(rng.below(8)));
    }
    // Footprints over few bits, so that dependence is common, or over all
    // 64, so that it is rare; some steps are global, some touch nothing.
    const std::uint64_t bits = rng.chance(0.5) ? 0xffull : ~0ull;
    const std::size_t len = rng.below(48);
    std::vector<ThreadId> s;
    std::vector<sched::Footprint> fp;
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(ids[rng.pickIndex(ids)]);
      sched::Footprint f;
      if (rng.chance(0.05)) {
        f.global = true;
      } else if (!rng.chance(0.1)) {
        for (int k = 0; k < 2; ++k) {
          f.read |= (1ull << rng.below(64)) & bits;
          if (rng.chance(0.5)) f.write |= (1ull << rng.below(64)) & bits;
        }
      }
      fp.push_back(f);
    }
    // Bounds below, at and above the run length.
    for (const std::size_t bound :
         {static_cast<std::size_t>(rng.below(len + 1)), len, len + 7}) {
      // Every prefix start the explorer can analyze from.
      for (std::size_t first = 0; first <= len; ++first) {
        const std::size_t from = std::max<std::size_t>(first, 1);
        const std::vector<FoundRace> want = scanRaces(s, fp, from, bound);
        ASSERT_EQ(indexRaces(s, fp, from, bound), want)
            << "bound " << bound << " from " << from;
        racesChecked += want.size();
      }
    }
  }
  EXPECT_GT(racesChecked, 10000u);  // the inputs do race
}
