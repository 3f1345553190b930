// Tests for the component library: functional correctness of each monitor
// component under deterministic schedules, stress under random schedules,
// and the behaviour of each seeded mutant.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "confail/components/barrier.hpp"
#include "confail/components/bounded_buffer.hpp"
#include "confail/components/latch.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/components/readers_writers.hpp"
#include "confail/components/scenario_registry.hpp"
#include "confail/components/semaphore.hpp"
#include "confail/events/trace.hpp"
#include "confail/gen/generator.hpp"
#include "confail/gen/interpret.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace comps = confail::components;
namespace ev = confail::events;
namespace sched = confail::sched;
using confail::monitor::Runtime;
using sched::Outcome;

namespace {
// The harnesses' scheduler outlives their Runtime, and the scheduler owns
// the spawned closures until it dies.  So a component the closures use is
// owned by the test body (declared after the harness, captured by
// reference), never by a closure: its destructor must still find the
// Runtime alive.
struct Harness {
  explicit Harness(std::uint64_t seed = 1)
      : strategy(seed), sched(strategy), rt(trace, sched, seed) {}
  ev::Trace trace;
  sched::RandomWalkStrategy strategy;
  sched::VirtualScheduler sched;
  Runtime rt;
};

struct RRHarness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
};
}  // namespace

TEST(ProducerConsumerTest, TransfersStringCharByChar) {
  RRHarness h;
  comps::ProducerConsumer pc(h.rt);
  std::string received;
  h.rt.spawn("producer", [&] { pc.send("hello"); });
  h.rt.spawn("consumer", [&] {
    for (int i = 0; i < 5; ++i) received.push_back(pc.receive());
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(received, "hello");
  EXPECT_EQ(pc.pendingChars(), 0);
}

TEST(ProducerConsumerTest, SenderBlocksUntilBufferDrained) {
  RRHarness h;
  comps::ProducerConsumer pc(h.rt);
  std::string received;
  h.rt.spawn("producer", [&] {
    pc.send("ab");
    pc.send("cd");  // must wait until both of "ab" are received
  });
  h.rt.spawn("consumer", [&] {
    for (int i = 0; i < 4; ++i) received.push_back(pc.receive());
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(received, "abcd");
}

TEST(ProducerConsumerTest, ManyMessagesUnderRandomSchedules) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    Harness h(seed);
    comps::ProducerConsumer pc(h.rt);
    std::string received;
    h.rt.spawn("producer", [&] {
      for (int m = 0; m < 5; ++m) pc.send("msg" + std::to_string(m));
    });
    h.rt.spawn("consumer", [&] {
      for (int i = 0; i < 20; ++i) received.push_back(pc.receive());
    });
    ASSERT_EQ(h.sched.run().outcome, Outcome::Completed) << "seed " << seed;
    EXPECT_EQ(received, "msg0msg1msg2msg3msg4") << "seed " << seed;
  }
}

TEST(ProducerConsumerTest, TraceConformsToFigure1Model) {
  Harness h(5);
  comps::ProducerConsumer pc(h.rt);
  h.rt.spawn("producer", [&] {
    pc.send("xy");
    pc.send("z");
  });
  h.rt.spawn("consumer", [&] {
    for (int i = 0; i < 3; ++i) pc.receive();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  auto v = confail::petri::validateTraceAgainstModel(h.trace, pc.mon().id());
  EXPECT_TRUE(v.ok) << v.message;
}

TEST(ProducerConsumerTest, SkipSyncMutantCorruptsDataSomewhere) {
  // Search random schedules for the FF-T1 interference of the
  // unsynchronized mutant: two racing consumers can both read curPos == 2
  // and retrieve the same character ('a','a'), losing 'b'.
  bool corruptionSeen = false;
  for (std::uint64_t seed = 1; seed <= 200 && !corruptionSeen; ++seed) {
    sched::RandomWalkStrategy strategy(seed);
    sched::VirtualScheduler::Options sopts;
    sopts.maxSteps = 3000;
    sched::VirtualScheduler s(strategy, sopts);
    ev::Trace trace;
    Runtime rt(trace, s, seed);
    comps::ProducerConsumer::Faults f;
    f.skipSync = true;
    comps::ProducerConsumer pc(rt, f);
    auto got = std::make_shared<std::string>();
    rt.spawn("p", [&pc] { pc.send("ab"); });
    for (int c = 0; c < 2; ++c) {
      rt.spawn("c" + std::to_string(c), [&pc, got, &corruptionSeen] {
        got->push_back(pc.receive());
        if (got->size() == 2) {
          std::string sorted = *got;
          std::sort(sorted.begin(), sorted.end());
          if (sorted != "ab") corruptionSeen = true;
        }
      });
    }
    s.run();
  }
  EXPECT_TRUE(corruptionSeen);
}

TEST(BoundedBufferTest, FifoUnderContention) {
  RRHarness h;
  comps::BoundedBuffer<int> buf(h.rt, "buf", 3);
  std::vector<int> got;
  h.rt.spawn("producer", [&] {
    for (int i = 0; i < 10; ++i) buf.put(i);
  });
  h.rt.spawn("consumer", [&] {
    for (int i = 0; i < 10; ++i) got.push_back(buf.take());
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  std::vector<int> want(10);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
}

TEST(BoundedBufferTest, CapacityNeverExceeded) {
  Harness h(9);
  comps::BoundedBuffer<int> buf(h.rt, "buf", 2);
  int maxSize = 0;
  h.rt.spawn("producer", [&] {
    for (int i = 0; i < 20; ++i) {
      buf.put(i);
      maxSize = std::max(maxSize, buf.sizeNow());
    }
  });
  h.rt.spawn("consumer", [&] {
    for (int i = 0; i < 20; ++i) (void)buf.take();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_LE(maxSize, 2);
}

TEST(BoundedBufferTest, MultipleProducersConsumersConserveItems) {
  for (std::uint64_t seed : {3ull, 7ull}) {
    Harness h(seed);
    comps::BoundedBuffer<int> buf(h.rt, "buf", 4);
    long sumOut = 0;
    const int perProducer = 10;
    for (int p = 0; p < 3; ++p) {
      h.rt.spawn("p" + std::to_string(p), [&buf, p] {
        for (int i = 0; i < perProducer; ++i) buf.put(p * 100 + i);
      });
    }
    for (int c = 0; c < 2; ++c) {
      h.rt.spawn("c" + std::to_string(c), [&buf, &sumOut, c] {
        int n = c == 0 ? 15 : 15;
        for (int i = 0; i < n; ++i) sumOut += buf.take();
      });
    }
    ASSERT_EQ(h.sched.run().outcome, Outcome::Completed) << "seed " << seed;
    long sumIn = 0;
    for (int p = 0; p < 3; ++p) {
      for (int i = 0; i < perProducer; ++i) sumIn += p * 100 + i;
    }
    EXPECT_EQ(sumOut, sumIn) << "seed " << seed;
  }
}

TEST(BoundedBufferTest, SkipNotifyOnTakeHangsProducers) {
  RRHarness h;
  comps::BoundedBuffer<int>::Faults f;
  f.skipNotifyOnTake = true;
  comps::BoundedBuffer<int> buf(h.rt, "buf", 1, f);
  h.rt.spawn("producer", [&] {
    buf.put(1);
    buf.put(2);  // blocks (full); take never notifies -> hangs forever
  });
  h.rt.spawn("consumer", [&] {
    // Let the producer block on the full buffer first.
    for (int k = 0; k < 10; ++k) h.rt.schedulePoint();
    (void)buf.take();
    (void)buf.take();
  });
  auto r = h.sched.run();
  EXPECT_EQ(r.outcome, Outcome::Deadlock);
}

TEST(ReadersWritersTest, WriterExcludesReadersAndWriters) {
  RRHarness h;
  comps::ReadersWriters rw(h.rt);
  bool writerIn = false;
  int readersIn = 0;
  bool violation = false;
  for (int i = 0; i < 3; ++i) {
    h.rt.spawn("reader" + std::to_string(i), [&] {
      for (int k = 0; k < 5; ++k) {
        rw.startRead();
        ++readersIn;
        if (writerIn) violation = true;
        h.rt.schedulePoint();
        --readersIn;
        rw.endRead();
      }
    });
  }
  h.rt.spawn("writer", [&] {
    for (int k = 0; k < 5; ++k) {
      rw.startWrite();
      writerIn = true;
      if (readersIn > 0) violation = true;
      h.rt.schedulePoint();
      writerIn = false;
      rw.endWrite();
    }
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_FALSE(violation);
}

TEST(ReadersWritersTest, ConcurrentReadersOverlap) {
  RRHarness h;
  comps::ReadersWriters rw(h.rt);
  int maxReaders = 0;
  for (int i = 0; i < 3; ++i) {
    h.rt.spawn("reader" + std::to_string(i), [&] {
      rw.startRead();
      maxReaders = std::max(maxReaders, rw.activeReaders());
      for (int k = 0; k < 3; ++k) h.rt.schedulePoint();
      maxReaders = std::max(maxReaders, rw.activeReaders());
      rw.endRead();
    });
  }
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_GE(maxReaders, 2);
}

TEST(ReadersWritersTest, SkipNotifyMutantHangsQueuedReaders) {
  RRHarness h;
  comps::ReadersWriters::Faults f;
  f.skipNotifyOnEndWrite = true;
  comps::ReadersWriters rw(h.rt, comps::ReadersWriters::Preference::Readers, f);
  h.rt.spawn("writer", [&] {
    rw.startWrite();
    for (int k = 0; k < 4; ++k) h.rt.schedulePoint();
    rw.endWrite();  // forgets to notify
  });
  h.rt.spawn("reader", [&] {
    rw.startRead();
    rw.endRead();
  });
  auto r = h.sched.run();
  EXPECT_EQ(r.outcome, Outcome::Deadlock);
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_EQ(r.blocked[0].kind, sched::BlockKind::CondWait);
}

TEST(SemaphoreTest, PermitsBoundConcurrency) {
  RRHarness h;
  comps::CountingSemaphore sem(h.rt, "sem", 2);
  int inside = 0, maxInside = 0;
  for (int t = 0; t < 5; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      sem.acquire();
      ++inside;
      maxInside = std::max(maxInside, inside);
      h.rt.schedulePoint();
      --inside;
      sem.release();
    });
  }
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_LE(maxInside, 2);
  EXPECT_EQ(sem.permits(), 2);
}

TEST(SemaphoreTest, ZeroPermitsBlocksUntilRelease) {
  RRHarness h;
  comps::CountingSemaphore sem(h.rt, "sem", 0);
  bool acquired = false;
  h.rt.spawn("taker", [&] {
    sem.acquire();
    acquired = true;
  });
  h.rt.spawn("giver", [&] {
    for (int k = 0; k < 3; ++k) h.rt.schedulePoint();
    sem.release();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_TRUE(acquired);
}

TEST(SemaphoreTest, SkipNotifyMutantHangsAcquirer) {
  RRHarness h;
  comps::CountingSemaphore::Faults f;
  f.skipNotify = true;
  comps::CountingSemaphore sem(h.rt, "sem", 0, f);
  h.rt.spawn("taker", [&] { sem.acquire(); });
  h.rt.spawn("giver", [&] {
    for (int k = 0; k < 3; ++k) h.rt.schedulePoint();
    sem.release();
  });
  EXPECT_EQ(h.sched.run().outcome, Outcome::Deadlock);
}

TEST(SemaphoreTest, NegativePermitsRejected) {
  RRHarness h;
  EXPECT_THROW(comps::CountingSemaphore(h.rt, "bad", -1), confail::UsageError);
}

TEST(BarrierTest, AllPartiesRendezvous) {
  RRHarness h;
  comps::CyclicBarrier bar(h.rt, "bar", 3);
  std::vector<int> generations;
  for (int t = 0; t < 3; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      generations.push_back(bar.await());
    });
  }
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(generations, (std::vector<int>{0, 0, 0}));
}

TEST(BarrierTest, ReusableAcrossGenerations) {
  RRHarness h;
  comps::CyclicBarrier bar(h.rt, "bar", 2);
  std::vector<int> gens;
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] {
      for (int round = 0; round < 3; ++round) gens.push_back(bar.await());
    });
  }
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  int count0 = 0, count1 = 0, count2 = 0;
  for (int g : gens) {
    count0 += g == 0;
    count1 += g == 1;
    count2 += g == 2;
  }
  EXPECT_EQ(count0, 2);
  EXPECT_EQ(count1, 2);
  EXPECT_EQ(count2, 2);
}

TEST(BarrierTest, NotifyOneMutantStrandsWaiters) {
  RRHarness h;
  comps::CyclicBarrier::Faults f;
  f.notifyOneOnly = true;
  comps::CyclicBarrier bar(h.rt, "bar", 3);
  comps::CyclicBarrier barBad(h.rt, "barBad", 3, f);
  for (int t = 0; t < 3; ++t) {
    h.rt.spawn("t" + std::to_string(t), [&] { barBad.await(); });
  }
  auto r = h.sched.run();
  EXPECT_EQ(r.outcome, Outcome::Deadlock);
  EXPECT_EQ(r.blocked.size(), 1u);  // two waiters; one woken, one stranded
}

TEST(BarrierTest, SinglePartyNeverBlocks) {
  RRHarness h;
  comps::CyclicBarrier bar(h.rt, "bar", 1);
  int gen = -1;
  h.rt.spawn("solo", [&] { gen = bar.await(); });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(gen, 0);
}

TEST(LatchTest, AwaitersReleasedAtZero) {
  RRHarness h;
  comps::CountDownLatch latch(h.rt, "latch", 2);
  int released = 0;
  for (int t = 0; t < 2; ++t) {
    h.rt.spawn("awaiter" + std::to_string(t), [&] {
      latch.await();
      ++released;
    });
  }
  h.rt.spawn("counter", [&] {
    for (int k = 0; k < 3; ++k) h.rt.schedulePoint();
    latch.countDown();
    latch.countDown();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(released, 2);
  EXPECT_EQ(latch.count(), 0);
}

TEST(LatchTest, AwaitAfterZeroReturnsImmediately) {
  RRHarness h;
  comps::CountDownLatch latch(h.rt, "latch", 0);
  bool done = false;
  h.rt.spawn("t", [&] {
    latch.await();
    done = true;
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_TRUE(done);
}

TEST(LatchTest, ExtraCountDownIsNoOp) {
  RRHarness h;
  comps::CountDownLatch latch(h.rt, "latch", 1);
  h.rt.spawn("t", [&] {
    latch.countDown();
    latch.countDown();  // below zero: ignored
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(latch.count(), 0);
}

TEST(LatchTest, SkipNotifyMutantHangsAwaiter) {
  RRHarness h;
  comps::CountDownLatch::Faults f;
  f.skipNotify = true;
  comps::CountDownLatch latch(h.rt, "latch", 1, f);
  h.rt.spawn("awaiter", [&] { latch.await(); });
  h.rt.spawn("counter", [&] {
    for (int k = 0; k < 3; ++k) h.rt.schedulePoint();
    latch.countDown();
  });
  EXPECT_EQ(h.sched.run().outcome, Outcome::Deadlock);
}

// ---------------------------------------------------------------------------
// ThreadPool: task execution, blocking submit, shutdown, failed tasks.
// ---------------------------------------------------------------------------

#include "confail/components/thread_pool.hpp"
#include "confail/detect/lockset.hpp"

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  RRHarness h;
  comps::ThreadPool pool(h.rt, "pool", 3, 4);
  int sum = 0;
  h.rt.spawn("client", [&] {
    for (int i = 1; i <= 10; ++i) {
      pool.submit([&sum, i] { sum += i; });
    }
    pool.shutdown();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(sum, 55);
  EXPECT_EQ(pool.completedTasks(), 10);
  EXPECT_EQ(pool.failedTasks(), 0);
}

TEST(ThreadPoolTest, SubmitBlocksWhenQueueFull) {
  RRHarness h;
  comps::ThreadPool pool(h.rt, "pool", 1, 2);
  int done = 0;
  h.rt.spawn("client", [&] {
    for (int i = 0; i < 8; ++i) {
      pool.submit([&done, &h] {
        h.rt.schedulePoint();
        ++done;
      });
    }
    pool.shutdown();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(done, 8);
}

TEST(ThreadPoolTest, ThrowingTasksAreCountedNotFatal) {
  RRHarness h;
  comps::ThreadPool pool(h.rt, "pool", 2, 3);
  h.rt.spawn("client", [&] {
    pool.submit([] { throw std::runtime_error("bad task"); });
    pool.submit([] {});
    pool.submit([] { throw std::runtime_error("worse task"); });
    pool.shutdown();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(pool.completedTasks(), 1);
  EXPECT_EQ(pool.failedTasks(), 2);
}

TEST(ThreadPoolTest, EmptyTaskRejected) {
  RRHarness h;
  comps::ThreadPool pool(h.rt, "pool", 1, 2);
  h.rt.spawn("client", [&] {
    EXPECT_THROW(pool.submit(comps::ThreadPool::Task{}), confail::UsageError);
    pool.shutdown();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
}

TEST(ThreadPoolTest, RandomSchedulesConserveTasks) {
  for (std::uint64_t seed : {61ull, 62ull, 63ull}) {
    Harness h(seed);
    comps::ThreadPool pool(h.rt, "pool", 2, 2);
    int executed = 0;
    h.rt.spawn("clientA", [&] {
      for (int i = 0; i < 6; ++i) pool.submit([&executed] { ++executed; });
    });
    h.rt.spawn("clientB", [&] {
      for (int i = 0; i < 6; ++i) pool.submit([&executed] { ++executed; });
    });
    h.rt.spawn("closer", [&] {
      // Let both clients finish submitting first (join, then shut down).
      h.rt.join(h.sched.threadCount() >= 2 ? 2 : 0);
      h.rt.join(3);
      pool.shutdown();
    });
    ASSERT_EQ(h.sched.run().outcome, Outcome::Completed) << "seed " << seed;
    EXPECT_EQ(executed, 12) << "seed " << seed;
    EXPECT_EQ(pool.completedTasks(), 12);
  }
}

TEST(ThreadPoolTest, NoDetectorFindingsOnCleanRun) {
  RRHarness h;
  comps::ThreadPool pool(h.rt, "pool", 2, 2);
  h.rt.spawn("client", [&] {
    for (int i = 0; i < 5; ++i) pool.submit([] {});
    pool.shutdown();
  });
  ASSERT_EQ(h.sched.run().outcome, Outcome::Completed);
  confail::detect::LocksetCore lockset;
  auto findings = confail::detect::analyzeWithCore(lockset, h.trace);
  EXPECT_TRUE(findings.empty());
  auto v = confail::petri::validateTraceAgainstModel(h.trace, 0);
  EXPECT_TRUE(v.ok) << v.message;
}

// ---------------------------------------------------------------------------
// The Instruments contract, over every registry scenario and one generated
// program, each run once through ifn: decorate runs once per instantiation
// before the first spawn, the object it returns dies while the Runtime it
// was handed is still alive, and a caller's trace is cleared before the
// run's first event.
// ---------------------------------------------------------------------------

namespace {

namespace scenarios = comps::scenarios;

struct DecorationProbe {
  DecorationProbe(Runtime& r, int& d) : rt(r), destroyed(d) {}
  DecorationProbe(const DecorationProbe&) = delete;
  Runtime& rt;
  int& destroyed;
  ~DecorationProbe() {
    // Reads the Runtime: had it died first, this is the use-after-free the
    // asan-ubsan preset reports.
    EXPECT_TRUE(rt.isVirtual());
    EXPECT_GT(rt.trace().size(), 0u);
    ++destroyed;
  }
};

}  // namespace

TEST(InstrumentsContract, HoldsForEveryRegistryScenarioAndAGeneratedOne) {
  std::vector<scenarios::NamedScenario> all = scenarios::registry();
  all.push_back(confail::gen::asScenario(
      confail::gen::generate(54, confail::gen::GenConfig{}), "gen_54"));
  ev::Event stale;
  stale.kind = ev::EventKind::Write;
  stale.aux = 0xdead;
  for (const scenarios::NamedScenario& sc : all) {
    SCOPED_TRACE(sc.name);
    ev::Trace trace;
    trace.record(stale);
    trace.record(stale);
    int decorated = 0;
    int destroyed = 0;
    std::size_t threadsAtDecorate = 99;
    std::size_t eventsAtDecorate = 99;
    {
      sched::RoundRobinStrategy strategy;
      sched::VirtualScheduler s(strategy);
      scenarios::Instruments ins;
      ins.trace = &trace;
      ins.decorate = [&](Runtime& rt) -> std::shared_ptr<void> {
        ++decorated;
        threadsAtDecorate = rt.scheduler().threadCount();
        eventsAtDecorate = rt.trace().size();
        return std::make_shared<DecorationProbe>(rt, destroyed);
      };
      sc.ifn(s, ins);
      EXPECT_EQ(decorated, 1);
      EXPECT_EQ(threadsAtDecorate, 0u);
      EXPECT_EQ(eventsAtDecorate, 0u);
      (void)s.run();
      EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(decorated, 1);
    EXPECT_EQ(destroyed, 1);
    const std::vector<ev::Event> events = trace.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().seq, 0u);
    for (const ev::Event& e : events) EXPECT_NE(e.aux, stale.aux);
  }
}
