// Detect FF-T2 starvation, then fix it constructively.
//
// Act 1: an unfair monitor (LIFO grants — legal per the JLS, which demands
//        no fairness) starves a victim thread; the starvation detector
//        reports it and the classifier maps it to Table 1's FF-T2.
// Act 2: the same workload on a FifoLock (ticket protocol built on the
//        same unfair monitor) — the victim is served; detector silent.
#include <cstdio>

#include "confail/components/fifo_lock.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/classifier.hpp"

namespace sched = confail::sched;
namespace tax = confail::taxonomy;
using confail::monitor::Monitor;
using confail::monitor::Runtime;
using confail::monitor::Synchronized;

int main() {
  bool ok = true;

  std::printf("--- Act 1: unfair monitor starves the victim (FF-T2) ---\n");
  {
    confail::events::Trace trace;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler s(strategy);
    Runtime rt(trace, s, 1);
    Monitor::Options unfair;
    unfair.grantPolicy = confail::monitor::SelectPolicy::Lifo;
    Monitor m(rt, "hot", unfair);

    auto aggressor = [&] {
      m.lock();
      for (int k = 0; k < 6; ++k) rt.schedulePoint();
      for (int i = 0; i < 120; ++i) {
        m.notifyOne();
        m.wait();
      }
      m.unlock();
    };
    rt.spawn("aggressor-0", aggressor);
    rt.spawn("victim", [&] { Synchronized sync(m); });
    rt.spawn("aggressor-1", aggressor);
    s.run();

    confail::detect::StarvationCore detector(50);
    auto findings = confail::detect::analyzeWithCore(detector, trace);
    tax::FailureReport report;
    tax::Classifier::addFindings(report, findings, trace);
    std::printf("%s", report.describe().c_str());
    ok = ok && report.has(tax::FailureClass::FF_T2);
  }

  std::printf("\n--- Act 2: the FifoLock ticket protocol fixes it ---\n");
  {
    confail::events::Trace trace;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler s(strategy);
    Runtime rt(trace, s, 1);
    confail::components::FifoLock lock(rt, "fifo");

    bool victimServed = false;
    for (int a = 0; a < 2; ++a) {
      rt.spawn("aggressor-" + std::to_string(a), [&] {
        for (int i = 0; i < 120; ++i) {
          confail::components::FifoLock::Guard g(lock);
          rt.schedulePoint();
        }
      });
    }
    rt.spawn("victim", [&] {
      confail::components::FifoLock::Guard g(lock);
      victimServed = true;
    });
    auto r = s.run();

    confail::detect::StarvationCore detector(50);
    auto findings = confail::detect::analyzeWithCore(detector, trace);
    std::printf("victim served: %s; starvation findings: %zu; run: %s\n",
                victimServed ? "yes" : "NO", findings.size(),
                sched::outcomeName(r.outcome));
    ok = ok && victimServed && r.ok();
  }

  std::printf("\n%s\n", ok ? "STARVATION FIX EXAMPLE: OK"
                           : "STARVATION FIX EXAMPLE: FAILED");
  return ok ? 0 : 1;
}
