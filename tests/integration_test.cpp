// Integration tests: the complete pipeline — scripted deterministic
// execution, detector battery, completion-time checking, taxonomy
// classification — applied to a catalog of seeded mutants across all
// components.  Each mutant must land in its intended Table 1 class, and
// every correct component must come out clean end to end.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "confail/clock/abstract_clock.hpp"
#include "confail/components/barrier.hpp"
#include "confail/components/bounded_buffer.hpp"
#include "confail/components/latch.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/components/readers_writers.hpp"
#include "confail/components/semaphore.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/classifier.hpp"

namespace comps = confail::components;
namespace detect = confail::detect;
namespace ev = confail::events;
namespace sched = confail::sched;
namespace tax = confail::taxonomy;
using confail::clock::AbstractClock;
using confail::conan::Call;
using confail::conan::TestDriver;
using confail::monitor::Runtime;
using tax::FailureClass;

namespace {

struct Pipeline {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
  AbstractClock clk{rt};
  TestDriver driver{rt, clk};

  std::vector<detect::Finding> detectAll() {
    detect::LocksetCore lockset;
    detect::HbCore hb;
    detect::LockOrderCore lg;
    detect::WaitNotifyCore wn;
    detect::StarvationCore sv;
    detect::UnnecessarySyncCore us;
    detect::ReleaseDisciplineCore rd;
    std::vector<detect::Finding> all;
    for (detect::StreamCore* d : std::initializer_list<detect::StreamCore*>{
             &lockset, &hb, &lg, &wn, &sv, &us, &rd}) {
      auto fs = detect::analyzeWithCore(*d, trace);
      all.insert(all.end(), fs.begin(), fs.end());
    }
    return all;
  }

  tax::FailureReport classify(const confail::conan::Results& results) {
    return tax::Classifier::classifyAll(detectAll(), results.run, results,
                                        trace);
  }
};

// A mutant case: builds the component + scripted scenario on the pipeline,
// returns the class the pipeline is expected to report.
struct MutantCase {
  std::string name;
  FailureClass expected;
  std::function<confail::conan::Results(Pipeline&)> run;
};

std::string mutantName(const testing::TestParamInfo<MutantCase>& info) {
  return info.param.name;
}

confail::conan::Results pcScenario(Pipeline& p, comps::ProducerConsumer& pc) {
  Call r;
  r.thread = "consumer";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{3, 3}};
  r.expectedValue = 'x';
  r.expectWait = true;
  p.driver.add(r);
  p.driver.addVoid("producer", 3, "send(x)", [&pc] { pc.send("x"); });
  return p.driver.execute();
}

std::vector<MutantCase> mutantCatalog() {
  std::vector<MutantCase> cases;

  auto addPc = [&cases](std::string name, FailureClass cls,
                        comps::ProducerConsumer::Faults f) {
    cases.push_back(MutantCase{
        std::move(name), cls, [f](Pipeline& p) {
          // The component must outlive driver.execute(); tie it to the
          // pipeline via a static-free heap allocation owned by the lambda
          // chain below.
          auto pc = std::make_shared<comps::ProducerConsumer>(p.rt, f);
          auto results = pcScenario(p, *pc);
          return results;
        }});
  };

  // skipSync busy-waits instead of blocking, which starves the abstract
  // clock (it only advances when no thread is runnable) — so this mutant
  // gets a clock-free scenario with plainly spawned racing threads.
  cases.push_back(MutantCase{
      "pc_skipSync_FFT1", FailureClass::FF_T1, [](Pipeline& p) {
        comps::ProducerConsumer::Faults f;
        f.skipSync = true;
        auto pc = std::make_shared<comps::ProducerConsumer>(p.rt, f);
        p.rt.spawn("producer", [pc] { pc->send("ab"); });
        for (int c = 0; c < 2; ++c) {
          p.rt.spawn("consumer" + std::to_string(c),
                     [pc] { (void)pc->receive(); });
        }
        confail::conan::Results results;
        results.run = p.sched.run();
        return results;
      }});
  {
    comps::ProducerConsumer::Faults f;
    f.skipWaitReceive = true;
    addPc("pc_skipWait_FFT3", FailureClass::FF_T3, f);
  }
  // The erroneous-wait mutant needs the single-call script: a lone send on
  // an empty buffer must complete immediately; the tester declares
  // expectWait=false, so the hang is classified as an unexpected wait.
  cases.push_back(MutantCase{
      "pc_erroneousWait_EFT3", FailureClass::EF_T3, [](Pipeline& p) {
        comps::ProducerConsumer::Faults f;
        f.erroneousWaitSend = true;
        auto pc = std::make_shared<comps::ProducerConsumer>(p.rt, f);
        Call s;
        s.thread = "producer";
        s.startTick = 1;
        s.label = "send(x)";
        s.action = [pc]() -> std::int64_t {
          pc->send("x");
          return 0;
        };
        s.completionWindow = {{1, 1}};
        s.expectWait = false;
        p.driver.add(s);
        return p.driver.execute();
      }});
  {
    comps::ProducerConsumer::Faults f;
    f.holdLockForever = true;
    addPc("pc_holdLock_FFT4", FailureClass::FF_T4, f);
  }
  {
    comps::ProducerConsumer::Faults f;
    f.earlyReleaseSend = true;
    addPc("pc_earlyRelease_EFT4", FailureClass::EF_T4, f);
  }
  {
    comps::ProducerConsumer::Faults f;
    f.skipNotify = true;
    addPc("pc_skipNotify_FFT5", FailureClass::FF_T5, f);
  }
  {
    comps::ProducerConsumer::Faults f;
    f.ifInsteadOfWhile = true;
    addPc("pc_ifGuard_EFT5", FailureClass::EF_T5, f);
  }

  // BoundedBuffer: notify() instead of notifyAll() under a mixed-waiter
  // load that deterministically strands a waiter (FF-T5).
  cases.push_back(MutantCase{
      "buf_notifyOne_FFT5", FailureClass::FF_T5, [](Pipeline& p) {
        comps::BoundedBuffer<int>::Faults f;
        f.notifyOneOnly = true;
        auto buf = std::make_shared<comps::BoundedBuffer<int>>(p.rt, "buf", 1, f);
        // Producer fills; two consumers wait on empty; producer's put wakes
        // only one; the second consumer hangs.
        Call t1;
        t1.thread = "c1";
        t1.startTick = 1;
        t1.label = "take()";
        t1.action = [buf]() -> std::int64_t { return buf->take(); };
        t1.expectWait = true;
        p.driver.add(t1);
        Call t2 = t1;
        t2.thread = "c2";
        t2.startTick = 2;
        p.driver.add(t2);
        p.driver.addVoid("p", 3, "put(7)", [buf] { buf->put(7); });
        return p.driver.execute();
      }});

  // Semaphore: release without notify (FF-T5).
  cases.push_back(MutantCase{
      "sem_skipNotify_FFT5", FailureClass::FF_T5, [](Pipeline& p) {
        comps::CountingSemaphore::Faults f;
        f.skipNotify = true;
        auto sem = std::make_shared<comps::CountingSemaphore>(p.rt, "sem", 0, f);
        Call a;
        a.thread = "taker";
        a.startTick = 1;
        a.label = "acquire()";
        a.action = [sem]() -> std::int64_t {
          sem->acquire();
          return 0;
        };
        a.expectWait = true;
        a.completionWindow = {{2, 2}};
        p.driver.add(a);
        p.driver.addVoid("giver", 2, "release()", [sem] { sem->release(); });
        return p.driver.execute();
      }});

  // Barrier: notify() strands all but one waiter (FF-T5).
  cases.push_back(MutantCase{
      "barrier_notifyOne_FFT5", FailureClass::FF_T5, [](Pipeline& p) {
        comps::CyclicBarrier::Faults f;
        f.notifyOneOnly = true;
        auto bar = std::make_shared<comps::CyclicBarrier>(p.rt, "bar", 3, f);
        for (int t = 0; t < 3; ++t) {
          Call c;
          c.thread = "t" + std::to_string(t);
          c.startTick = static_cast<std::uint64_t>(t + 1);
          c.label = "await()";
          c.action = [bar]() -> std::int64_t { return bar->await(); };
          p.driver.add(c);
        }
        return p.driver.execute();
      }});

  // Latch: countDown without notify (FF-T5).
  cases.push_back(MutantCase{
      "latch_skipNotify_FFT5", FailureClass::FF_T5, [](Pipeline& p) {
        comps::CountDownLatch::Faults f;
        f.skipNotify = true;
        auto latch = std::make_shared<comps::CountDownLatch>(p.rt, "latch", 1, f);
        Call a;
        a.thread = "awaiter";
        a.startTick = 1;
        a.label = "await()";
        a.action = [latch]() -> std::int64_t {
          latch->await();
          return 0;
        };
        a.expectWait = true;
        p.driver.add(a);
        p.driver.addVoid("counter", 2, "countDown()",
                         [latch] { latch->countDown(); });
        return p.driver.execute();
      }});

  // ReadersWriters: unsynchronized endRead (FF-T1).
  cases.push_back(MutantCase{
      "rw_unsyncedEndRead_FFT1", FailureClass::FF_T1, [](Pipeline& p) {
        comps::ReadersWriters::Faults f;
        f.unsyncedEndRead = true;
        auto rw = std::make_shared<comps::ReadersWriters>(
            p.rt, comps::ReadersWriters::Preference::Readers, f);
        for (int t = 0; t < 2; ++t) {
          p.driver.addVoid("r" + std::to_string(t), 1, "read-cycle", [rw] {
            for (int i = 0; i < 5; ++i) {
              rw->startRead();
              rw->endRead();
            }
          });
        }
        return p.driver.execute();
      }});

  return cases;
}

class MutantPipeline : public testing::TestWithParam<MutantCase> {};

}  // namespace

TEST_P(MutantPipeline, ClassifiedIntoIntendedTableOneClass) {
  const MutantCase& mc = GetParam();
  Pipeline p;
  auto results = mc.run(p);
  auto report = p.classify(results);
  EXPECT_TRUE(report.has(mc.expected))
      << "expected " << tax::failureClassName(mc.expected)
      << " but report was:\n"
      << report.describe();
}

INSTANTIATE_TEST_SUITE_P(Catalog, MutantPipeline,
                         testing::ValuesIn(mutantCatalog()), mutantName);

// ---------------------------------------------------------------------------
// The correct components must come out clean through the same pipeline.
// ---------------------------------------------------------------------------

TEST(CleanPipeline, CorrectProducerConsumerIsClean) {
  Pipeline p;
  comps::ProducerConsumer pc(p.rt);
  auto results = pcScenario(p, pc);
  ASSERT_TRUE(results.allPassed()) << results.describe();
  auto report = p.classify(results);
  EXPECT_TRUE(report.failures.empty()) << report.describe();
}

TEST(CleanPipeline, CorrectBoundedBufferIsClean) {
  Pipeline p;
  comps::BoundedBuffer<int> buf(p.rt, "buf", 2);
  p.driver.addVoid("c1", 1, "take", [&buf] { (void)buf.take(); });
  p.driver.addVoid("c2", 2, "take", [&buf] { (void)buf.take(); });
  p.driver.addVoid("p", 3, "put", [&buf] { buf.put(1); });
  p.driver.addVoid("p", 4, "put", [&buf] { buf.put(2); });
  p.driver.addVoid("p", 5, "put", [&buf] { buf.put(3); });
  p.driver.addVoid("c1", 6, "take", [&buf] { (void)buf.take(); });
  auto results = p.driver.execute();
  ASSERT_EQ(results.run.outcome, sched::Outcome::Completed);
  auto report = p.classify(results);
  EXPECT_TRUE(report.failures.empty()) << report.describe();
}

TEST(CleanPipeline, CorrectBarrierIsClean) {
  Pipeline p;
  comps::CyclicBarrier bar(p.rt, "bar", 3);
  for (int t = 0; t < 3; ++t) {
    p.driver.addVoid("t" + std::to_string(t),
                     static_cast<std::uint64_t>(t + 1), "await",
                     [&bar] { (void)bar.await(); });
  }
  auto results = p.driver.execute();
  ASSERT_EQ(results.run.outcome, sched::Outcome::Completed);
  auto report = p.classify(results);
  EXPECT_TRUE(report.failures.empty()) << report.describe();
}

TEST(CleanPipeline, CorrectSemaphoreAndLatchAreClean) {
  Pipeline p;
  comps::CountingSemaphore sem(p.rt, "sem", 1);
  comps::CountDownLatch latch(p.rt, "latch", 2);
  p.driver.addVoid("a", 1, "acquire", [&sem] { sem.acquire(); });
  p.driver.addVoid("a", 2, "release", [&sem] { sem.release(); });
  p.driver.addVoid("b", 3, "await", [&latch] { latch.await(); });
  p.driver.addVoid("a", 4, "countDown", [&latch] { latch.countDown(); });
  p.driver.addVoid("a", 5, "countDown", [&latch] { latch.countDown(); });
  auto results = p.driver.execute();
  ASSERT_EQ(results.run.outcome, sched::Outcome::Completed);
  auto report = p.classify(results);
  EXPECT_TRUE(report.failures.empty()) << report.describe();
}
