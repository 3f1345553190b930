// Unit tests for the taxonomy: Table 1 data integrity, the finding -> class
// mapping, run-outcome classification, and completion-time classification
// end-to-end against seeded ProducerConsumer mutants.
#include <gtest/gtest.h>

#include "confail/clock/abstract_clock.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/classifier.hpp"
#include "confail/taxonomy/table1.hpp"
#include "confail/taxonomy/taxonomy.hpp"

namespace detect = confail::detect;
namespace ev = confail::events;
namespace sched = confail::sched;
namespace tax = confail::taxonomy;
using confail::clock::AbstractClock;
using confail::components::ProducerConsumer;
using confail::conan::Call;
using confail::conan::TestDriver;
using confail::monitor::Runtime;
using tax::Classifier;
using tax::FailureClass;

TEST(Taxonomy, TenClassesInTableOrder) {
  const auto& all = tax::allFailureClasses();
  ASSERT_EQ(all.size(), tax::kFailureClassCount);
  EXPECT_EQ(all.front(), FailureClass::FF_T1);
  EXPECT_EQ(all.back(), FailureClass::EF_T5);
  // Alternating FF/EF per transition.
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(tax::deviationOf(all[i]),
              i % 2 == 0 ? tax::Deviation::FailureToFire
                         : tax::Deviation::ErroneousFiring);
    EXPECT_EQ(static_cast<int>(tax::transitionOf(all[i])),
              static_cast<int>(i / 2));
  }
}

TEST(Taxonomy, NamesAreStable) {
  EXPECT_STREQ(tax::failureClassName(FailureClass::FF_T1), "FF-T1");
  EXPECT_STREQ(tax::failureClassName(FailureClass::EF_T5), "EF-T5");
  EXPECT_STREQ(tax::transitionName(tax::Transition::T3), "T3");
  EXPECT_STREQ(tax::deviationName(tax::Deviation::FailureToFire),
               "failure to fire");
}

TEST(Taxonomy, EfT2IsTheOnlyInapplicableClass) {
  for (FailureClass c : tax::allFailureClasses()) {
    EXPECT_EQ(tax::info(c).applicable, c != FailureClass::EF_T2)
        << tax::failureClassName(c);
  }
}

TEST(Taxonomy, Table1TextMatchesThePaperKeyPhrases) {
  EXPECT_NE(tax::info(FailureClass::FF_T1).consequences.find("race condition"),
            std::string::npos);
  EXPECT_NE(tax::info(FailureClass::EF_T1).consequences.find("Unnecessary"),
            std::string::npos);
  EXPECT_NE(tax::info(FailureClass::FF_T2).consequences.find("permanently"),
            std::string::npos);
  EXPECT_NE(tax::info(FailureClass::FF_T3).testingNotes.find("completion"),
            std::string::npos);
  EXPECT_NE(tax::info(FailureClass::EF_T5).consequences.find("prematurely"),
            std::string::npos);
}

TEST(Taxonomy, TransitionDescriptionsMentionPlaces) {
  EXPECT_NE(std::string(tax::transitionDescription(tax::Transition::T2))
                .find("B + E -> C"),
            std::string::npos);
  EXPECT_NE(std::string(tax::transitionDescription(tax::Transition::T5))
                .find("dashed"),
            std::string::npos);
}

TEST(Table1, RenderContainsEveryClassRow) {
  std::string t = tax::renderTable1();
  for (FailureClass c : tax::allFailureClasses()) {
    EXPECT_NE(t.find(tax::failureClassName(c)), std::string::npos)
        << tax::failureClassName(c);
  }
  EXPECT_NE(t.find("Testing Notes"), std::string::npos);
  EXPECT_NE(t.find("Not applicable"), std::string::npos);
}

TEST(Table1, ExtendedRenderIncludesExtraColumn) {
  std::map<FailureClass, std::string> extra;
  extra[FailureClass::FF_T1] = "DETECTED by lockset";
  std::string t = tax::renderTable1With("Detected", extra);
  EXPECT_NE(t.find("Detected"), std::string::npos);
  EXPECT_NE(t.find("DETECTED by lockset"), std::string::npos);
}

TEST(Classifier, FindingKindMapping) {
  using detect::FindingKind;
  auto expectMaps = [](FindingKind k, FailureClass c) {
    auto v = Classifier::classesOf(k);
    EXPECT_FALSE(v.empty());
    EXPECT_EQ(v.front(), c);
  };
  expectMaps(FindingKind::DataRace, FailureClass::FF_T1);
  expectMaps(FindingKind::UnnecessarySync, FailureClass::EF_T1);
  expectMaps(FindingKind::Starvation, FailureClass::FF_T2);
  expectMaps(FindingKind::WaitingForever, FailureClass::FF_T5);
  expectMaps(FindingKind::LostNotify, FailureClass::FF_T5);
  expectMaps(FindingKind::GuardNotRechecked, FailureClass::EF_T5);
  expectMaps(FindingKind::EarlyRelease, FailureClass::EF_T4);
  expectMaps(FindingKind::LockHeldForever, FailureClass::FF_T4);
  // Deadlock cycles evidence both FF-T2 and FF-T4.
  auto dc = Classifier::classesOf(FindingKind::DeadlockCycle);
  ASSERT_EQ(dc.size(), 2u);
}

namespace {

struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
  AbstractClock clk{rt};
  TestDriver driver{rt, clk};
};

}  // namespace

TEST(Classifier, SkipNotifyMutantClassifiedAsFFT5) {
  Harness h;
  ProducerConsumer::Faults f;
  f.skipNotify = true;
  ProducerConsumer pc(h.rt, f);

  Call r;
  r.thread = "consumer";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{2, 2}};
  r.expectWait = true;
  h.driver.add(r);
  h.driver.addVoid("producer", 2, "send(x)", [&pc] { pc.send("x"); });

  auto res = h.driver.execute();
  detect::WaitNotifyCore wn;
  auto report = Classifier::classifyAll(detect::analyzeWithCore(wn, h.trace),
                                        res.run, res, h.trace);
  EXPECT_TRUE(report.has(FailureClass::FF_T5)) << report.describe();
  EXPECT_FALSE(report.has(FailureClass::FF_T1));
}

TEST(Classifier, SkipWaitMutantClassifiedAsFFT3) {
  Harness h;
  ProducerConsumer::Faults f;
  f.skipWaitReceive = true;
  ProducerConsumer pc(h.rt, f);

  Call r;
  r.thread = "consumer";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{3, 3}};  // should complete only after the send
  r.expectedValue = 'x';
  r.expectWait = true;
  h.driver.add(r);
  h.driver.addVoid("producer", 3, "send(x)", [&pc] { pc.send("x"); });

  auto res = h.driver.execute();
  EXPECT_FALSE(res.allPassed());
  auto report = Classifier::classifyAll({}, res.run, res, h.trace);
  EXPECT_TRUE(report.has(FailureClass::FF_T3)) << report.describe();
}

TEST(Classifier, ErroneousWaitMutantClassifiedAsEFT3) {
  Harness h;
  ProducerConsumer::Faults f;
  f.erroneousWaitSend = true;
  ProducerConsumer pc(h.rt, f);

  // A single send on an empty buffer should complete immediately; the
  // mutant waits and (with no other thread) hangs forever.
  Call s;
  s.thread = "producer";
  s.startTick = 1;
  s.label = "send(x)";
  s.action = [&pc]() -> std::int64_t {
    pc.send("x");
    return 0;
  };
  s.completionWindow = {{1, 1}};
  s.expectWait = false;
  h.driver.add(s);

  auto res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, sched::Outcome::Deadlock);
  auto report = Classifier::classifyAll({}, res.run, res, h.trace);
  EXPECT_TRUE(report.has(FailureClass::EF_T3)) << report.describe();
}

TEST(Classifier, HoldLockForeverMutantClassifiedAsFFT4) {
  Harness h;
  ProducerConsumer::Faults f;
  f.holdLockForever = true;
  ProducerConsumer pc(h.rt, f);

  h.driver.addVoid("producer", 1, "send(x)", [&pc] { pc.send("x"); });
  Call r;
  r.thread = "consumer";
  r.startTick = 2;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{2, 2}};
  h.driver.add(r);

  auto res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, sched::Outcome::StepLimit);
  auto report = Classifier::classifyAll({}, res.run, res, h.trace);
  EXPECT_TRUE(report.has(FailureClass::FF_T4)) << report.describe();
}

TEST(Classifier, DeadlockBlockKindsSplitFFT5AndFFT2) {
  Harness h;
  confail::monitor::Monitor m(h.rt, "m");
  h.rt.spawn("waiter", [&] {
    confail::monitor::Synchronized sync(m);
    m.wait();
  });
  h.rt.spawn("blocked", [&] {
    for (int k = 0; k < 3; ++k) h.rt.schedulePoint();
    m.lock();  // the waiter released it... then waits forever; this thread
               // acquires fine.  Acquire twice via a second monitor holder:
    m.unlock();
  });
  auto run = h.sched.run();
  // waiter: CondWait blocked forever -> FF-T5.
  ASSERT_EQ(run.outcome, sched::Outcome::Deadlock);
  tax::FailureReport report;
  Classifier::addRunOutcome(report, run, h.trace);
  EXPECT_TRUE(report.has(FailureClass::FF_T5));
}

TEST(Classifier, ValueCorruptionClassifiedAsFFT1) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.driver.addVoid("producer", 1, "send(a)", [&pc] { pc.send("a"); });
  Call r;
  r.thread = "consumer";
  r.startTick = 2;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.expectedValue = 'z';  // wrong on purpose: models corrupted state
  h.driver.add(r);
  auto res = h.driver.execute();
  auto report = Classifier::classifyAll({}, res.run, res, h.trace);
  EXPECT_TRUE(report.has(FailureClass::FF_T1));
}

TEST(Classifier, CleanRunProducesEmptyReport) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.driver.addVoid("producer", 1, "send(a)", [&pc] { pc.send("a"); });
  Call r;
  r.thread = "consumer";
  r.startTick = 2;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.expectedValue = 'a';
  r.completionWindow = {{2, 2}};
  h.driver.add(r);
  auto res = h.driver.execute();
  ASSERT_TRUE(res.allPassed()) << res.describe();

  detect::LocksetCore lockset;
  detect::WaitNotifyCore wn;
  detect::UnnecessarySyncCore us;
  std::vector<detect::Finding> all;
  for (detect::StreamCore* d :
       std::initializer_list<detect::StreamCore*>{&lockset, &wn, &us}) {
    auto fs = detect::analyzeWithCore(*d, h.trace);
    all.insert(all.end(), fs.begin(), fs.end());
  }
  auto report = Classifier::classifyAll(all, res.run, res, h.trace);
  EXPECT_TRUE(report.failures.empty()) << report.describe();
}

TEST(FailureReport, DescribeAndClasses) {
  tax::FailureReport r;
  r.failures.push_back({FailureClass::FF_T5, "evidence-a", "src-a"});
  r.failures.push_back({FailureClass::FF_T1, "evidence-b", "src-b"});
  r.failures.push_back({FailureClass::FF_T5, "evidence-c", "src-c"});
  auto classes = r.classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], FailureClass::FF_T1);  // Table 1 order
  EXPECT_EQ(classes[1], FailureClass::FF_T5);
  std::string d = r.describe();
  EXPECT_NE(d.find("FF-T5"), std::string::npos);
  EXPECT_NE(d.find("evidence-b"), std::string::npos);
}
