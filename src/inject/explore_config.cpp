#include "confail/inject/explore_config.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>

#include "confail/cofg/cofg.hpp"
#include "confail/cofg/coverage.hpp"
#include "confail/components/bounded_buffer.hpp"
#include "confail/inject/injector.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/support/assert.hpp"

namespace confail::inject {

namespace scenarios = confail::components::scenarios;
using confail::components::BoundedBuffer;

namespace {

/// Per-run bridge between the program closure (which builds the run's
/// private trace and Injector) and the explorer's run callback.  Both
/// execute on the same worker thread, so a thread_local slot carries the
/// capsule across.  The capsule itself holds only passive data (the trace
/// and the copied-out deviation count), so deferring its destruction to the
/// next run on the worker is harmless; the Injector is owned separately by
/// the scenario state and dies with it, while the Runtime is still alive.
struct Capsule {
  events::Trace trace;
  Injector* injector = nullptr;  ///< borrowed; nulled when the owner dies
  std::uint64_t applied = 0;     ///< deviation count, saved at detach
};

thread_local std::shared_ptr<Capsule> tlsCapsule;

/// Owned by the scenario State (via Instruments::decorate's return value):
/// destroys the Injector while the Runtime is still alive and copies its
/// deviation count into the longer-lived capsule.
struct Decoration {
  std::shared_ptr<Capsule> capsule;
  std::unique_ptr<Injector> injector;
  ~Decoration() {
    if (injector != nullptr) capsule->applied = injector->deviationsApplied();
    capsule->injector = nullptr;
  }
};

}  // namespace

ExploreConfig::ExploreConfig() {
  // The `confail explore` defaults: a tighter step limit than the explorer's.
  eo_.maxRuns = 10000;
  eo_.maxSteps = 20000;
}

ExploreConfig& ExploreConfig::scenario(
    const components::scenarios::NamedScenario& sc) {
  sc_ = &sc;
  return *this;
}

ExploreConfig& ExploreConfig::scenario(const std::string& name) {
  const components::scenarios::NamedScenario* sc =
      components::scenarios::find(name);
  CONFAIL_CHECK(sc != nullptr, UsageError,
                "ExploreConfig: unknown scenario '" + name + "'");
  sc_ = sc;
  return *this;
}

ExploreConfig& ExploreConfig::explorer(
    const sched::ExhaustiveExplorer::Options& eo) {
  eo_ = eo;
  return *this;
}

ExploreConfig& ExploreConfig::metrics(obs::Registry* reg) {
  metrics_ = reg;
  return *this;
}

ExploreConfig& ExploreConfig::stderrProgress() {
  progress_ = true;
  return *this;
}

ExploreConfig& ExploreConfig::plan(const InjectionPlan& p) {
  hasPlan_ = true;
  plan_ = p;
  return *this;
}

ExploreConfig& ExploreConfig::captureRuns(bool on) {
  captureRuns_ = on;
  return *this;
}

std::uint64_t ExploreConfig::deadlockSignature(const sched::RunResult& r) {
  std::uint64_t h = sched::kFpSeed;
  for (const sched::BlockedThreadInfo& b : r.blocked) {
    h = sched::fpMix(h, (static_cast<std::uint64_t>(b.id) << 32) ^
                            static_cast<std::uint64_t>(b.kind));
    h = sched::fpMix(h, b.resource);
  }
  return h;
}

obs::ExploreSummary ExploreConfig::Outcome::summary() const {
  obs::ExploreSummary s;
  s.scenario = scenario != nullptr ? scenario->name : "";
  s.runs = stats.runs;
  s.completed = stats.completed;
  s.deadlocks = stats.deadlocks;
  s.stepLimited = stats.stepLimited;
  s.exceptions = stats.exceptions;
  s.dedupedStates = stats.dedupedStates;
  s.prunedBranches = stats.prunedBranches;
  s.sleepBlockedRuns = stats.sleepBlockedRuns;
  s.distinctDeadlockStates = distinctDeadlockStates;
  s.exhausted = stats.exhausted;
  s.stoppedByCallback = stats.stoppedByCallback;
  s.reductionsEnabled = reductionsEnabled;
  s.firstFailure = stats.firstFailure;
  if (!stats.firstFailure.empty()) {
    s.firstFailureOutcome = sched::outcomeName(stats.firstFailureOutcome);
  }
  // Wall time is the one nondeterministic output; report it only when
  // observability was asked for, so the default (and --json) output keeps
  // the byte-identical workers-1-vs-N contract the tests diff on.
  if (instrumented) {
    s.elapsedMs = elapsedMs;
    s.runsPerSec = elapsedMs > 0.0
                       ? static_cast<double>(stats.runs) * 1000.0 / elapsedMs
                       : 0.0;
  }
  return s;
}

ExploreConfig::Outcome ExploreConfig::explore(const RunObserver& onRun) const {
  CONFAIL_CHECK(sc_ != nullptr, UsageError,
                "ExploreConfig: no scenario selected");
  const components::scenarios::NamedScenario& sc = *sc_;

  sched::ExhaustiveExplorer::Options eo = eo_;
  eo.metrics = metrics_;
  if (progress_) {
    eo.progressIntervalRuns = eo.maxRuns >= 100 ? eo.maxRuns / 20 : 10;
    eo.onProgress = [](const sched::ExhaustiveExplorer::Progress& p) {
      std::fprintf(stderr,
                   "[progress] runs=%llu queue=%lld steals=%llu "
                   "elapsed=%.1fs (%.0f runs/sec)\n",
                   static_cast<unsigned long long>(p.runs),
                   static_cast<long long>(p.queueDepth),
                   static_cast<unsigned long long>(p.steals), p.elapsedSec,
                   p.runsPerSec);
    };
  }

  const bool capsules = hasPlan_ || captureRuns_;

  // The program.  Two shapes:
  //   capsule          — a per-run private trace (and Injector, when a plan
  //                      is set), bridged to the run callback via TLS;
  //   shared registry  — only the metrics registry, possibly null (atomic
  //                      counters are safe under parallel workers, a shared
  //                      trace is not).
  sched::ExhaustiveExplorer::Program program;
  if (capsules) {
    const InjectionPlan* planPtr = hasPlan_ ? &plan_ : nullptr;
    obs::Registry* reg = metrics_;
    program = [&sc, planPtr, reg](sched::VirtualScheduler& s) {
      auto capsule = std::make_shared<Capsule>();
      scenarios::Instruments ins;
      ins.trace = &capsule->trace;
      ins.metrics = reg;
      ins.decorate =
          [capsule, planPtr](monitor::Runtime& rt) -> std::shared_ptr<void> {
        auto deco = std::make_shared<Decoration>();
        deco->capsule = capsule;
        if (planPtr != nullptr) {
          deco->injector = std::make_unique<Injector>(rt, *planPtr);
          capsule->injector = deco->injector.get();
        }
        return deco;
      };
      tlsCapsule = capsule;
      sc.ifn(s, ins);
    };
  } else {
    scenarios::Instruments ins;
    ins.metrics = metrics_;
    program = [&sc, ins](sched::VirtualScheduler& s) { sc.ifn(s, ins); };
  }

  std::set<std::uint64_t> deadlockSigs;
  sched::ExhaustiveExplorer explorer(eo);
  Outcome out;
  out.scenario = sc_;
  out.instrumented = metrics_ != nullptr || progress_;
  out.reductionsEnabled =
      eo.fingerprintPruning ||
      eo.reduction != sched::ExhaustiveExplorer::Reduction::None;
  const auto t0 = std::chrono::steady_clock::now();
  out.stats = explorer.explore(
      program, [&deadlockSigs, &onRun, capsules](
                   const std::vector<sched::ThreadId>& schedule,
                   const sched::RunResult& r) {
        if (r.outcome == sched::Outcome::Deadlock) {
          deadlockSigs.insert(deadlockSignature(r));
        }
        if (!onRun) return true;
        RunView view{schedule, r};
        if (capsules && tlsCapsule != nullptr) {
          // Same worker thread as the program that filled the slot; the
          // run's scheduler (and thus the scenario state and Injector) is
          // still alive while the callback runs.
          view.trace = &tlsCapsule->trace;
          view.deviationsApplied = tlsCapsule->injector != nullptr
                                       ? tlsCapsule->injector->deviationsApplied()
                                       : tlsCapsule->applied;
        }
        return onRun(view);
      });
  out.elapsedMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  out.distinctDeadlockStates = deadlockSigs.size();
  return out;
}

void ExploreConfig::capture(events::Trace& trace,
                            obs::Registry& metricsReg) const {
  CONFAIL_CHECK(sc_ != nullptr, UsageError,
                "ExploreConfig: no scenario selected");
  const components::scenarios::NamedScenario& sc = *sc_;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler::Options so;
  so.maxSteps = eo_.maxSteps;
  sched::VirtualScheduler s(strategy, so);
  scenarios::Instruments ins;
  ins.trace = &trace;
  ins.metrics = &metricsReg;
  if (hasPlan_) {
    const InjectionPlan plan = plan_;
    ins.decorate = [plan](monitor::Runtime& rt) -> std::shared_ptr<void> {
      return std::make_shared<Injector>(rt, plan);
    };
  }
  sc.ifn(s, ins);
  (void)s.run();  // deadlock / step limit is fine; the trace is the product

  if (!sc.hasBuffer) return;
  const std::vector<events::Event> evs = trace.events();
  const cofg::Cofg putGraph = cofg::Cofg::build(BoundedBuffer<int>::putModel());
  const cofg::Cofg takeGraph =
      cofg::Cofg::build(BoundedBuffer<int>::takeModel());
  cofg::CoverageTracker put(putGraph, trace.findMethod("buf.put"));
  cofg::CoverageTracker take(takeGraph, trace.findMethod("buf.take"));
  put.process(evs);
  take.process(evs);
  put.publishTo(metricsReg, "cofg.put");
  take.publishTo(metricsReg, "cofg.take");
  const double covered =
      static_cast<double>(put.coveredArcs() + take.coveredArcs());
  const double total = static_cast<double>(put.totalArcs() + take.totalArcs());
  metricsReg.gauge("cofg.arcs_covered").set(covered);
  metricsReg.gauge("cofg.arcs_total").set(total);
  metricsReg.gauge("cofg.coverage").set(total > 0.0 ? covered / total : 1.0);
}

}  // namespace confail::inject
