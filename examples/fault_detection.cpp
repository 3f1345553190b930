// Inject a concurrency fault, detect it, classify it per Table 1.
//
// Walks three seeded mutants of the producer-consumer through the full
// pipeline: deterministic execution -> detector battery + completion-time
// checks -> taxonomy classifier -> Table 1 failure classes with evidence.
#include <cstdio>
#include <vector>

#include "confail/clock/abstract_clock.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/classifier.hpp"

namespace detect = confail::detect;
namespace sched = confail::sched;
namespace tax = confail::taxonomy;
using confail::clock::AbstractClock;
using confail::components::ProducerConsumer;
using confail::conan::Call;
using confail::conan::TestDriver;
using confail::monitor::Runtime;

namespace {

tax::FailureReport testMutant(const char* name,
                              const ProducerConsumer::Faults& faults) {
  confail::events::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler scheduler(strategy);
  Runtime rt(trace, scheduler, 1);
  AbstractClock clk(rt);
  TestDriver driver(rt, clk);
  ProducerConsumer pc(rt, faults);

  Call r;
  r.thread = "consumer";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  r.completionWindow = {{3, 3}};
  r.expectedValue = 'x';
  r.expectWait = true;
  driver.add(r);
  driver.addVoid("producer", 3, "send(x)", [&pc] { pc.send("x"); }, {{3, 3}});

  auto results = driver.execute();

  detect::LocksetCore lockset;
  detect::WaitNotifyCore waitNotify;
  detect::ReleaseDisciplineCore release;
  std::vector<detect::Finding> findings;
  for (detect::StreamCore* d : std::initializer_list<detect::StreamCore*>{
           &lockset, &waitNotify, &release}) {
    auto fs = detect::analyzeWithCore(*d, trace);
    findings.insert(findings.end(), fs.begin(), fs.end());
  }

  auto report = tax::Classifier::classifyAll(findings, results.run, results, trace);
  std::printf("--- mutant: %s ---\n%s\n", name, report.describe().c_str());
  return report;
}

}  // namespace

int main() {
  int ok = 0;

  {
    ProducerConsumer::Faults f;
    f.skipNotify = true;
    auto report = testMutant("send()/receive() never notify", f);
    ok += report.has(tax::FailureClass::FF_T5) ? 1 : 0;
  }
  {
    ProducerConsumer::Faults f;
    f.skipWaitReceive = true;
    auto report = testMutant("receive() skips its wait", f);
    ok += report.has(tax::FailureClass::FF_T3) ? 1 : 0;
  }
  {
    ProducerConsumer::Faults f;
    f.earlyReleaseSend = true;
    auto report = testMutant("send() releases the lock mid-update", f);
    ok += report.has(tax::FailureClass::EF_T4) ? 1 : 0;
  }

  std::printf("%d/3 mutants classified into their intended Table 1 class\n", ok);
  std::printf("%s\n", ok == 3 ? "FAULT DETECTION EXAMPLE: OK"
                              : "FAULT DETECTION EXAMPLE: FAILED");
  return ok == 3 ? 0 : 1;
}
