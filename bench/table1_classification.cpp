// Table 1 reproduction: the classification of concurrency failures.
//
// The paper derives ten failure classes (failure-to-fire / erroneous-firing
// x T1..T5) by HAZOP analysis, and names for each the technique that
// detects it.  This harness *executes* the table: for every class it
//   1. injects the corresponding fault into a real component (a seeded
//      mutant of the Figure 2 producer-consumer, or a purpose-built
//      scenario where the paper's conditions demand one),
//   2. runs the scenario deterministically under the virtual scheduler,
//   3. applies exactly the detection technique the Testing Notes column
//      prescribes (static/dynamic analysis detectors, or ConAn
//      completion-time checking), and
//   4. feeds the observations to the taxonomy classifier and verifies the
//      failure is classified into the intended class.
// It finally regenerates Table 1 with a "Reproduced by" column.
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "bench_json.hpp"
#include "confail/clock/abstract_clock.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/classifier.hpp"
#include "confail/taxonomy/table1.hpp"

namespace detect = confail::detect;
namespace ev = confail::events;
namespace sched = confail::sched;
namespace tax = confail::taxonomy;
using confail::clock::AbstractClock;
using confail::components::ProducerConsumer;
using confail::conan::Call;
using confail::conan::TestDriver;
using confail::monitor::Monitor;
using confail::monitor::Runtime;
using confail::monitor::SharedVar;
using confail::monitor::Synchronized;
using tax::Classifier;
using tax::FailureClass;
using tax::FailureReport;

namespace {

struct Scenario {
  FailureClass target;
  std::string mutant;       // what fault is injected
  std::string technique;    // Table 1 testing-notes technique applied
  std::function<FailureReport()> run;
};

struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
};

std::vector<detect::Finding> runDetectors(const ev::Trace& trace) {
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

// ---- FF-T1: interference ---------------------------------------------------
FailureReport scenarioFFT1() {
  Harness h;
  ProducerConsumer::Faults f;
  f.skipSync = true;
  ProducerConsumer pc(h.rt, f);
  h.rt.spawn("producer", [&] { pc.send("ab"); });
  for (int c = 0; c < 2; ++c) {
    h.rt.spawn("consumer" + std::to_string(c), [&] { (void)pc.receive(); });
  }
  auto run = h.sched.run();
  FailureReport report;
  Classifier::addFindings(report, runDetectors(h.trace), h.trace);
  Classifier::addRunOutcome(report, run, h.trace);
  return report;
}

// ---- EF-T1: unnecessary synchronization ------------------------------------
FailureReport scenarioEFT1() {
  Harness h;
  // A synchronized counter used by exactly one thread, never waited on:
  // Table 1's "no more than one thread accesses shared resources".
  Monitor m(h.rt, "gratuitous");
  SharedVar<int> counter(h.rt, "counter", 0);
  h.rt.spawn("only-thread", [&] {
    for (int i = 0; i < 10; ++i) {
      Synchronized sync(m);
      counter.set(counter.get() + 1);
    }
  });
  auto run = h.sched.run();
  FailureReport report;
  Classifier::addFindings(report, runDetectors(h.trace), h.trace);
  Classifier::addRunOutcome(report, run, h.trace);
  return report;
}

// ---- FF-T2: lock never granted (starvation mode) ----------------------------
FailureReport scenarioFFT2() {
  Harness h;
  Monitor::Options mopts;
  mopts.grantPolicy = confail::monitor::SelectPolicy::Lifo;  // unfair JVM
  Monitor m(h.rt, "hot", mopts);
  auto aggressor = [&] {
    m.lock();
    for (int k = 0; k < 6; ++k) h.rt.schedulePoint();
    for (int i = 0; i < 120; ++i) {
      m.notifyOne();
      m.wait();
    }
    m.unlock();
  };
  h.rt.spawn("aggressor-0", aggressor);
  h.rt.spawn("victim", [&] { Synchronized sync(m); });
  h.rt.spawn("aggressor-1", aggressor);
  auto run = h.sched.run();
  FailureReport report;
  Classifier::addFindings(report, runDetectors(h.trace), h.trace);
  Classifier::addRunOutcome(report, run, h.trace);
  return report;
}

// ---- FF-T3: required wait never made ----------------------------------------
FailureReport scenarioFFT3() {
  Harness h;
  AbstractClock clk(h.rt);
  TestDriver driver(h.rt, clk);
  ProducerConsumer::Faults f;
  f.skipWaitReceive = true;
  ProducerConsumer pc(h.rt, f);
  Call r;
  r.thread = "consumer";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{3, 3}};  // must suspend until the tick-3 send
  r.expectedValue = 'x';
  r.expectWait = true;
  driver.add(r);
  driver.addVoid("producer", 3, "send(x)", [&pc] { pc.send("x"); });
  auto res = driver.execute();
  return Classifier::classifyAll({}, res.run, res, h.trace);
}

// ---- EF-T3: erroneous wait ---------------------------------------------------
FailureReport scenarioEFT3() {
  Harness h;
  AbstractClock clk(h.rt);
  TestDriver driver(h.rt, clk);
  ProducerConsumer::Faults f;
  f.erroneousWaitSend = true;
  ProducerConsumer pc(h.rt, f);
  Call s;
  s.thread = "producer";
  s.startTick = 1;
  s.label = "send(x)";
  s.action = [&pc]() -> std::int64_t {
    pc.send("x");
    return 0;
  };
  s.completionWindow = {{1, 1}};  // empty buffer: must complete immediately
  s.expectWait = false;
  driver.add(s);
  auto res = driver.execute();
  return Classifier::classifyAll({}, res.run, res, h.trace);
}

// ---- FF-T4: lock never released ----------------------------------------------
FailureReport scenarioFFT4() {
  Harness h;
  AbstractClock clk(h.rt);
  TestDriver driver(h.rt, clk);
  ProducerConsumer::Faults f;
  f.holdLockForever = true;
  ProducerConsumer pc(h.rt, f);
  driver.addVoid("producer", 1, "send(x)", [&pc] { pc.send("x"); }, {{1, 1}});
  Call r;
  r.thread = "consumer";
  r.startTick = 2;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{2, 2}};
  driver.add(r);
  Call r2;
  r2.thread = "consumer2";
  r2.startTick = 3;
  r2.label = "receive()";
  r2.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r2.completionWindow = {{3, 3}};
  driver.add(r2);
  auto res = driver.execute();
  auto report = Classifier::classifyAll(runDetectors(h.trace), res.run, res,
                                        h.trace);
  return report;
}

// ---- EF-T4: premature lock release --------------------------------------------
FailureReport scenarioEFT4() {
  Harness h;
  ProducerConsumer::Faults f;
  f.earlyReleaseSend = true;
  ProducerConsumer pc(h.rt, f);
  h.rt.spawn("producer", [&] { pc.send("x"); });
  h.rt.spawn("consumer", [&] { (void)pc.receive(); });
  auto run = h.sched.run();
  FailureReport report;
  Classifier::addFindings(report, runDetectors(h.trace), h.trace);
  Classifier::addRunOutcome(report, run, h.trace);
  return report;
}

// ---- FF-T5: thread never notified ----------------------------------------------
FailureReport scenarioFFT5() {
  Harness h;
  AbstractClock clk(h.rt);
  TestDriver driver(h.rt, clk);
  ProducerConsumer::Faults f;
  f.skipNotify = true;
  ProducerConsumer pc(h.rt, f);
  Call r;
  r.thread = "consumer";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.expectWait = true;
  r.completionWindow = {{2, 2}};
  driver.add(r);
  driver.addVoid("producer", 2, "send(x)", [&pc] { pc.send("x"); }, {{2, 2}});
  auto res = driver.execute();
  return Classifier::classifyAll(runDetectors(h.trace), res.run, res, h.trace);
}

// ---- EF-T5: premature notification / re-entry -----------------------------------
FailureReport scenarioEFT5() {
  Harness h;
  ProducerConsumer::Faults f;
  f.ifInsteadOfWhile = true;
  ProducerConsumer pc(h.rt, f);
  h.rt.spawn("consumer", [&] { (void)pc.receive(); });
  h.rt.spawn("producer", [&] {
    for (int k = 0; k < 4; ++k) h.rt.schedulePoint();
    pc.send("x");
  });
  auto run = h.sched.run();
  FailureReport report;
  Classifier::addFindings(report, runDetectors(h.trace), h.trace);
  Classifier::addRunOutcome(report, run, h.trace);
  return report;
}

}  // namespace

int main() {
  std::printf("=== Table 1: classification of concurrency failures ===\n");
  std::printf("Fault-injection matrix: one seeded mutant per class, detected\n"
              "by the technique the paper's Testing Notes column names.\n\n");

  std::vector<Scenario> scenarios = {
      {FailureClass::FF_T1, "ProducerConsumer with synchronization removed",
       "lockset (Eraser) + happens-before dynamic analysis", scenarioFFT1},
      {FailureClass::EF_T1, "synchronized counter used by a single thread",
       "unnecessary-sync dynamic analysis", scenarioEFT1},
      {FailureClass::FF_T2, "LIFO (unfair) lock grants + notify ping-pong",
       "starvation analysis (dynamic)", scenarioFFT2},
      {FailureClass::FF_T3, "receive() with the required wait removed",
       "ConAn completion-time check", scenarioFFT3},
      {FailureClass::EF_T3, "send() with an erroneous unconditional wait",
       "ConAn completion-time check", scenarioEFT3},
      {FailureClass::FF_T4, "receive() spins forever inside critical section",
       "completion-time check + lock-held analysis", scenarioFFT4},
      {FailureClass::EF_T4, "send() releases lock mid-update",
       "release-discipline static/dynamic analysis", scenarioEFT4},
      {FailureClass::FF_T5, "send()/receive() never notify",
       "completion-time check + wait-notify analysis", scenarioFFT5},
      {FailureClass::EF_T5, "if(guard) wait() instead of while(guard)",
       "guard-discipline analysis (premature re-entry vulnerability)",
       scenarioEFT5},
  };

  std::map<FailureClass, std::string> outcomes;
  outcomes[FailureClass::EF_T2] =
      "n/a by construction (substrate scheduler assumed correct)";

  confail::benchjson::Writer json;
  json.beginObject();
  json.field("bench", "table1_classification");
  json.key("rows");
  json.beginArray();

  int failures = 0;
  for (const Scenario& sc : scenarios) {
    FailureReport report = sc.run();
    const bool hit = report.has(sc.target);
    std::printf("%-6s mutant: %s\n", tax::failureClassName(sc.target),
                sc.mutant.c_str());
    std::printf("       technique: %s\n", sc.technique.c_str());
    std::printf("       classified: ");
    json.beginObject();
    json.field("class", tax::failureClassName(sc.target));
    json.field("mutant", sc.mutant);
    json.field("technique", sc.technique);
    json.key("classified_as");
    json.beginArray();
    bool first = true;
    for (FailureClass c : report.classes()) {
      std::printf("%s%s", first ? "" : ", ", tax::failureClassName(c));
      json.value(tax::failureClassName(c));
      first = false;
    }
    json.endArray();
    json.field("detected", hit);
    json.endObject();
    if (first) std::printf("(none)");
    std::printf("  ->  %s\n\n", hit ? "DETECTED" : "MISSED");
    if (!hit) ++failures;
    std::ostringstream cell;
    cell << (hit ? "DETECTED" : "MISSED") << " via " << sc.technique;
    outcomes[sc.target] = cell.str();
  }
  json.endArray();
  json.field("detected_classes", 9 - failures);
  json.field("applicable_classes", 9);
  json.field("ok", failures == 0);
  json.endObject();

  std::printf("%s\n",
              tax::renderTable1With("Reproduced by", outcomes).c_str());

  std::printf("%d/9 applicable failure classes detected and correctly "
              "classified (EF-T2 not applicable).\n",
              9 - failures);
  if (json.writeFile("BENCH_table1.json")) {
    std::printf("wrote BENCH_table1.json\n");
  } else {
    std::printf("FAIL: could not write BENCH_table1.json\n");
    return 1;
  }
  std::printf("%s\n", failures == 0 ? "TABLE 1 REPRODUCTION: OK"
                                    : "TABLE 1 REPRODUCTION: FAILURES");
  return failures == 0 ? 0 : 1;
}
