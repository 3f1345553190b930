// Property tests (parameterized sweeps) for the component library: every
// component, under many random schedules and shapes, preserves its core
// invariant, completes, and produces a model-conformant trace on which the
// whole detector battery stays silent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include "confail/components/barrier.hpp"
#include "confail/components/bounded_buffer.hpp"
#include "confail/components/latch.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/components/readers_writers.hpp"
#include "confail/components/semaphore.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace comps = confail::components;
namespace detect = confail::detect;
namespace ev = confail::events;
namespace sched = confail::sched;
using confail::monitor::Runtime;

namespace {

std::vector<detect::Finding> detectorBattery(const ev::Trace& trace) {
  detect::LocksetCore lockset;
  detect::HbCore hb;
  detect::LockOrderCore lg;
  detect::WaitNotifyCore wn;
  detect::ReleaseDisciplineCore rd;
  std::vector<detect::Finding> all;
  for (detect::StreamCore* d : std::initializer_list<detect::StreamCore*>{
           &lockset, &hb, &lg, &wn, &rd}) {
    auto fs = detect::analyzeWithCore(*d, trace);
    all.insert(all.end(), fs.begin(), fs.end());
  }
  return all;
}

std::string describeAll(const std::vector<detect::Finding>& fs,
                        const ev::Trace& trace) {
  std::string out;
  for (const auto& f : fs) out += f.describe(trace) + "\n";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// BoundedBuffer: (capacity, producers, consumers, seed) sweep.
// ---------------------------------------------------------------------------

using BufShape = std::tuple<int, int, int, std::uint64_t>;  // cap, P, C, seed

class BoundedBufferSweep : public testing::TestWithParam<BufShape> {};

namespace {

std::string seedName(const testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

std::string bufShapeName(const testing::TestParamInfo<BufShape>& info) {
  return "cap" + std::to_string(std::get<0>(info.param)) + "_p" +
         std::to_string(std::get<1>(info.param)) + "_c" +
         std::to_string(std::get<2>(info.param)) + "_seed" +
         std::to_string(std::get<3>(info.param));
}

}  // namespace


TEST_P(BoundedBufferSweep, ConservesItemsRespectsCapacityAndIsClean) {
  const auto [capacity, producers, consumers, seed] = GetParam();
  const int perProducer = 12;
  const int total = producers * perProducer;
  ASSERT_EQ(total % consumers, 0);

  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  comps::BoundedBuffer<int> buf(rt, "buf", static_cast<std::size_t>(capacity));

  long sumIn = 0, sumOut = 0;
  int maxSize = 0;
  for (int p = 0; p < producers; ++p) {
    rt.spawn("p" + std::to_string(p), [&, p] {
      for (int i = 0; i < perProducer; ++i) {
        int v = p * 1000 + i;
        sumIn += v;
        buf.put(v);
        maxSize = std::max(maxSize, buf.sizeNow());
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    rt.spawn("c" + std::to_string(c), [&] {
      for (int i = 0; i < total / consumers; ++i) sumOut += buf.take();
    });
  }
  auto r = s.run();
  ASSERT_EQ(r.outcome, sched::Outcome::Completed);
  EXPECT_EQ(sumOut, sumIn);
  EXPECT_EQ(buf.sizeNow(), 0);
  EXPECT_LE(maxSize, capacity);

  auto v = confail::petri::validateTraceAgainstModel(trace, buf.mon().id());
  EXPECT_TRUE(v.ok) << v.message;
  auto findings = detectorBattery(trace);
  EXPECT_TRUE(findings.empty()) << describeAll(findings, trace);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoundedBufferSweep,
    testing::Values(BufShape{1, 1, 1, 5}, BufShape{1, 2, 2, 6},
                    BufShape{2, 3, 2, 7}, BufShape{4, 2, 4, 8},
                    BufShape{8, 4, 3, 9}, BufShape{3, 1, 4, 10},
                    BufShape{1, 3, 1, 11}, BufShape{16, 2, 2, 12}),
    bufShapeName);

// ---------------------------------------------------------------------------
// ProducerConsumer: message-integrity sweep over seeds and message shapes.
// ---------------------------------------------------------------------------

class PcSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PcSweep, MessagesArriveIntactUnderRandomSchedules) {
  const std::uint64_t seed = GetParam();
  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  comps::ProducerConsumer pc(rt);

  std::string sent, received;
  rt.spawn("producer", [&] {
    for (int m = 0; m < 6; ++m) {
      std::string msg(1 + (m % 4), static_cast<char>('a' + m));
      sent += msg;
      pc.send(msg);
    }
  });
  std::size_t expectTotal = 1 + 2 + 3 + 4 + 1 + 2;
  rt.spawn("consumer", [&] {
    for (std::size_t i = 0; i < expectTotal; ++i) received.push_back(pc.receive());
  });
  auto r = s.run();
  ASSERT_EQ(r.outcome, sched::Outcome::Completed);
  EXPECT_EQ(received, sent);

  auto findings = detectorBattery(trace);
  EXPECT_TRUE(findings.empty()) << describeAll(findings, trace);
  auto v = confail::petri::validateTraceAgainstModel(trace, pc.mon().id());
  EXPECT_TRUE(v.ok) << v.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcSweep,
                         testing::Range<std::uint64_t>(1, 13),
                         seedName);

// ---------------------------------------------------------------------------
// CountingSemaphore: concurrency bound holds for every permit count.
// ---------------------------------------------------------------------------

using SemShape = std::tuple<int, int, std::uint64_t>;  // permits, threads, seed

class SemaphoreSweep : public testing::TestWithParam<SemShape> {};

namespace {
std::string semShapeName(const testing::TestParamInfo<SemShape>& info) {
  return "permits" + std::to_string(std::get<0>(info.param)) + "_threads" +
         std::to_string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<2>(info.param));
}
}  // namespace


TEST_P(SemaphoreSweep, NeverExceedsPermits) {
  const auto [permits, threads, seed] = GetParam();
  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  comps::CountingSemaphore sem(rt, "sem", permits);
  int inside = 0, maxInside = 0;
  for (int t = 0; t < threads; ++t) {
    rt.spawn("t" + std::to_string(t), [&] {
      for (int i = 0; i < 5; ++i) {
        sem.acquire();
        ++inside;
        maxInside = std::max(maxInside, inside);
        rt.schedulePoint();
        --inside;
        sem.release();
      }
    });
  }
  auto r = s.run();
  ASSERT_EQ(r.outcome, sched::Outcome::Completed);
  EXPECT_LE(maxInside, permits);
  EXPECT_EQ(sem.permits(), permits);
  auto findings = detectorBattery(trace);
  EXPECT_TRUE(findings.empty()) << describeAll(findings, trace);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SemaphoreSweep,
    testing::Combine(testing::Values(1, 2, 3), testing::Values(2, 5),
                     testing::Values(21ull, 22ull)),
    semShapeName);

// ---------------------------------------------------------------------------
// CyclicBarrier: all parties see every generation exactly once, any shape.
// ---------------------------------------------------------------------------

using BarShape = std::tuple<int, int, std::uint64_t>;  // parties, rounds, seed

class BarrierSweep : public testing::TestWithParam<BarShape> {};

namespace {
std::string barShapeName(const testing::TestParamInfo<BarShape>& info) {
  return "parties" + std::to_string(std::get<0>(info.param)) + "_rounds" +
         std::to_string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<2>(info.param));
}
}  // namespace


TEST_P(BarrierSweep, EveryGenerationCompletesExactlyOncePerParty) {
  const auto [parties, rounds, seed] = GetParam();
  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  comps::CyclicBarrier bar(rt, "bar", parties);
  std::map<int, int> generationCount;
  for (int t = 0; t < parties; ++t) {
    rt.spawn("t" + std::to_string(t), [&] {
      for (int round = 0; round < rounds; ++round) {
        ++generationCount[bar.await()];
      }
    });
  }
  auto r = s.run();
  ASSERT_EQ(r.outcome, sched::Outcome::Completed);
  ASSERT_EQ(generationCount.size(), static_cast<std::size_t>(rounds));
  for (int g = 0; g < rounds; ++g) {
    EXPECT_EQ(generationCount[g], parties) << "generation " << g;
  }
  auto findings = detectorBattery(trace);
  EXPECT_TRUE(findings.empty()) << describeAll(findings, trace);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BarrierSweep,
    testing::Combine(testing::Values(2, 3, 5), testing::Values(1, 4),
                     testing::Values(31ull, 32ull)),
    barShapeName);

// ---------------------------------------------------------------------------
// ReadersWriters: exclusion matrix holds under both preferences.
// ---------------------------------------------------------------------------

using RwShape = std::tuple<comps::ReadersWriters::Preference, std::uint64_t>;

class ReadersWritersSweep : public testing::TestWithParam<RwShape> {};

namespace {
std::string rwShapeName(const testing::TestParamInfo<RwShape>& info) {
  return std::string(std::get<0>(info.param) ==
                             comps::ReadersWriters::Preference::Readers
                         ? "readersPref"
                         : "fair") +
         "_seed" + std::to_string(std::get<1>(info.param));
}
}  // namespace


TEST_P(ReadersWritersSweep, ExclusionMatrixHolds) {
  const auto [pref, seed] = GetParam();
  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  comps::ReadersWriters rw(rt, pref);
  int readersIn = 0;
  bool writerIn = false;
  bool violation = false;
  for (int i = 0; i < 3; ++i) {
    rt.spawn("reader" + std::to_string(i), [&] {
      for (int k = 0; k < 4; ++k) {
        rw.startRead();
        ++readersIn;
        if (writerIn) violation = true;
        rt.schedulePoint();
        --readersIn;
        rw.endRead();
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    rt.spawn("writer" + std::to_string(i), [&] {
      for (int k = 0; k < 3; ++k) {
        rw.startWrite();
        if (writerIn || readersIn > 0) violation = true;
        writerIn = true;
        rt.schedulePoint();
        writerIn = false;
        rw.endWrite();
      }
    });
  }
  auto r = s.run();
  ASSERT_EQ(r.outcome, sched::Outcome::Completed);
  EXPECT_FALSE(violation);
  auto findings = detectorBattery(trace);
  EXPECT_TRUE(findings.empty()) << describeAll(findings, trace);
}

INSTANTIATE_TEST_SUITE_P(
    Prefs, ReadersWritersSweep,
    testing::Combine(testing::Values(comps::ReadersWriters::Preference::Readers,
                                     comps::ReadersWriters::Preference::Fair),
                     testing::Values(41ull, 42ull, 43ull)),
    rwShapeName);

// ---------------------------------------------------------------------------
// CountDownLatch: (count, awaiters, seed) sweep.
// ---------------------------------------------------------------------------

using LatchShape = std::tuple<int, int, std::uint64_t>;

class LatchSweep : public testing::TestWithParam<LatchShape> {};

namespace {
std::string latchShapeName(const testing::TestParamInfo<LatchShape>& info) {
  return "count" + std::to_string(std::get<0>(info.param)) + "_await" +
         std::to_string(std::get<1>(info.param)) + "_seed" +
         std::to_string(std::get<2>(info.param));
}
}  // namespace


TEST_P(LatchSweep, AwaitersReleasedExactlyAtZero) {
  const auto [count, awaiters, seed] = GetParam();
  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  comps::CountDownLatch latch(rt, "latch", count);
  int released = 0;
  bool earlyRelease = false;
  for (int t = 0; t < awaiters; ++t) {
    rt.spawn("awaiter" + std::to_string(t), [&] {
      latch.await();
      if (latch.count() != 0) earlyRelease = true;
      ++released;
    });
  }
  rt.spawn("counter", [&] {
    for (int i = 0; i < count; ++i) {
      rt.schedulePoint();
      latch.countDown();
    }
  });
  auto r = s.run();
  ASSERT_EQ(r.outcome, sched::Outcome::Completed);
  EXPECT_EQ(released, awaiters);
  EXPECT_FALSE(earlyRelease);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LatchSweep,
    testing::Combine(testing::Values(1, 3, 6), testing::Values(1, 4),
                     testing::Values(51ull, 52ull)),
    latchShapeName);
