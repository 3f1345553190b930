// Quickstart: write a concurrent component on the confail monitor
// substrate, test it deterministically, and let the detectors vet the run.
//
//   1. A Runtime in Virtual mode puts every thread under the deterministic
//      scheduler: runs are reproducible, deadlocks are observable.
//   2. Components use Monitor (Java object-lock semantics) + SharedVar
//      (instrumented data) and work unchanged in Real mode too.
//   3. After the run, the trace feeds the detector battery, and a run
//      outcome of Deadlock/StepLimit pinpoints liveness failures.
#include <cstdio>
#include <string>

#include "confail/detect/lockset.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace mon = confail::monitor;
namespace sched = confail::sched;

// A tiny hand-written component: a single-slot mailbox.
class Mailbox {
 public:
  explicit Mailbox(mon::Runtime& rt)
      : rt_(rt), m_(rt, "Mailbox"), value_(rt, "mailbox.value", 0),
        full_(rt, "mailbox.full", 0) {}

  void post(int v) {
    mon::Synchronized sync(m_);
    while (full_.get() != 0) m_.wait();
    value_.set(v);
    full_.set(1);
    m_.notifyAll();
  }

  int fetch() {
    mon::Synchronized sync(m_);
    while (full_.get() == 0) m_.wait();
    int v = value_.get();
    full_.set(0);
    m_.notifyAll();
    return v;
  }

 private:
  mon::Runtime& rt_;
  mon::Monitor m_;
  mon::SharedVar<int> value_;
  mon::SharedVar<int> full_;
};

int main() {
  confail::events::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler scheduler(strategy);
  mon::Runtime rt(trace, scheduler, /*seed=*/42);

  Mailbox box(rt);
  long sum = 0;

  rt.spawn("poster", [&] {
    for (int i = 1; i <= 5; ++i) box.post(i);
  });
  rt.spawn("fetcher", [&] {
    for (int i = 0; i < 5; ++i) sum += box.fetch();
  });

  sched::RunResult run = scheduler.run();
  std::printf("run outcome: %s after %llu scheduling decisions\n",
              sched::outcomeName(run.outcome),
              static_cast<unsigned long long>(run.steps));
  std::printf("sum of fetched values: %ld (expected 15)\n", sum);

  // Vet the execution with two of the Table 1 detectors.
  confail::detect::LocksetCore lockset;
  confail::detect::WaitNotifyCore waitNotify;
  auto f1 = confail::detect::analyzeWithCore(lockset, trace);
  auto f2 = confail::detect::analyzeWithCore(waitNotify, trace);
  std::printf("lockset findings: %zu, wait/notify findings: %zu\n",
              f1.size(), f2.size());

  std::printf("%zu events recorded; first few:\n", trace.size());
  std::size_t shown = 0;
  trace.render([&shown](const std::string& line) {
    if (shown++ < 8) std::printf("  %s\n", line.c_str());
  });

  bool ok = run.ok() && sum == 15 && f1.empty() && f2.empty();
  std::printf("%s\n", ok ? "QUICKSTART: OK" : "QUICKSTART: FAILED");
  return ok ? 0 : 1;
}
