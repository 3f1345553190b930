// Tests for confail::inject: the deviation-operator library, the
// protocol-deviation detector that closes the oracle gap for EF-T2/EF-T3/
// EF-T5/FF-T3, the negative controls, and the determinism contract of
// injection under the parallel explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "confail/detect/protocol_deviation.hpp"
#include "confail/detect/suite.hpp"
#include "confail/events/trace.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/inject/injector.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/inject/plan.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/sched/strategy.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/assert.hpp"
#include "confail/taxonomy/taxonomy.hpp"
#include "registry_captures.hpp"

namespace ev = confail::events;
namespace detect = confail::detect;
namespace inject = confail::inject;
namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;
using confail::taxonomy::FailureClass;

// ---------------------------------------------------------------------------
// Plan / Injector API
// ---------------------------------------------------------------------------

TEST(InjectionPlan, EveryClassButStructuralOnesIsInjectable) {
  EXPECT_FALSE(inject::isInjectable(FailureClass::EF_T1));
  EXPECT_EQ(inject::injectableClasses().size(), 9u);
  for (FailureClass cls : inject::injectableClasses()) {
    EXPECT_TRUE(inject::isInjectable(cls));
    EXPECT_NE(inject::operatorName(cls), nullptr);
    inject::InjectionPlan p;
    p.cls = cls;
    EXPECT_NE(p.describe().find(inject::operatorName(cls)), std::string::npos)
        << p.describe();
  }
}

TEST(Injector, RejectsStructuralClass) {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler s(strategy);
  confail::monitor::Runtime rt(trace, s, 1);
  inject::InjectionPlan plan;
  plan.cls = FailureClass::EF_T1;
  EXPECT_THROW(inject::Injector(rt, plan), confail::UsageError);
}

// ---------------------------------------------------------------------------
// ProtocolDeviationCore on synthetic traces
// ---------------------------------------------------------------------------

namespace {

ev::Event mk(ev::ThreadId t, ev::EventKind k, ev::MonitorId m,
             std::uint64_t aux = 0, ev::MethodId method = ev::kNoMethod,
             bool flag = false) {
  ev::Event e;
  e.thread = t;
  e.kind = k;
  e.monitor = m;
  e.aux = aux;
  e.method = method;
  e.flag = flag;
  return e;
}

std::vector<detect::Finding> analyzeProtocol(const ev::Trace& trace,
                                             bool flagBarging = false) {
  detect::ProtocolDeviationCore::Options opts;
  opts.flagBarging = flagBarging;
  detect::ProtocolDeviationCore d(opts);
  return detect::analyzeWithCore(d, trace);
}

}  // namespace

TEST(ProtocolDeviation, FlagsSpuriousWake) {
  ev::Trace trace;
  trace.record(mk(0, ev::EventKind::WaitBegin, 0));
  trace.record(mk(0, ev::EventKind::SpuriousWake, 0));
  trace.record(mk(0, ev::EventKind::SpuriousWake, 0));  // deduped
  auto findings = analyzeProtocol(trace);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, detect::FindingKind::SpuriousWakeup);
}

TEST(ProtocolDeviation, FlagsPhantomNotifyOnlyWithoutPermit) {
  {  // A Notified backed by a NotifyCall permit is legal.
    ev::Trace trace;
    trace.record(mk(1, ev::EventKind::NotifyCall, 0, /*waiters=*/1));
    trace.record(mk(0, ev::EventKind::Notified, 0));
    EXPECT_TRUE(analyzeProtocol(trace).empty());
  }
  {  // A Notified with no call behind it is a phantom.
    ev::Trace trace;
    trace.record(mk(0, ev::EventKind::Notified, 0));
    auto findings = analyzeProtocol(trace);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].kind, detect::FindingKind::PhantomNotify);
  }
}

TEST(ProtocolDeviation, FlagsMissedWaitOnlyWithoutInterveningWait) {
  const ev::MethodId method = 0;
  {  // true guard -> wait -> true guard is the correct protocol.
    ev::Trace trace;
    trace.record(
        mk(0, ev::EventKind::GuardEval, 0, method, method, /*flag=*/true));
    trace.record(mk(0, ev::EventKind::WaitBegin, 0));
    trace.record(
        mk(0, ev::EventKind::GuardEval, 0, method, method, /*flag=*/true));
    EXPECT_TRUE(analyzeProtocol(trace).empty());
  }
  {  // two true evaluations with no wait between: the wait never fired.
    ev::Trace trace;
    trace.record(
        mk(0, ev::EventKind::GuardEval, 0, method, method, /*flag=*/true));
    trace.record(
        mk(0, ev::EventKind::GuardEval, 0, method, method, /*flag=*/true));
    auto findings = analyzeProtocol(trace);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].kind, detect::FindingKind::MissedWait);
  }
}

TEST(ProtocolDeviation, BargingIsOptIn) {
  ev::Trace trace;
  trace.record(mk(0, ev::EventKind::LockRequest, 0));
  trace.record(mk(1, ev::EventKind::LockRequest, 0));
  trace.record(mk(1, ev::EventKind::LockAcquire, 0));  // overtakes thread 0
  EXPECT_TRUE(analyzeProtocol(trace, /*flagBarging=*/false).empty());
  auto findings = analyzeProtocol(trace, /*flagBarging=*/true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, detect::FindingKind::BargingAcquire);
}

// ---------------------------------------------------------------------------
// Detection matrix: every injectable class caught on the reference scenario
// ---------------------------------------------------------------------------

TEST(InjectionMatrix, EveryInjectableClassCaughtOnFig2) {
  const scenarios::NamedScenario* fig2 = scenarios::find("fig2");
  ASSERT_NE(fig2, nullptr);
  const inject::JobSpec spec;
  const auto eo = spec.explorerOptions(spec.reductions.front());
  for (FailureClass cls : inject::injectableClasses()) {
    ASSERT_TRUE(inject::planApplies(cls, *fig2));
    const inject::MatrixCell cell =
        inject::runCell(*fig2, inject::defaultPlanFor(cls, *fig2), eo);
    EXPECT_TRUE(cell.caught) << cell.plan.describe();
    EXPECT_TRUE(cell.classifierAgrees) << cell.plan.describe();
    EXPECT_GT(cell.deviatedRuns, 0u) << cell.plan.describe();
    EXPECT_FALSE(cell.caughtBy().empty()) << cell.plan.describe();
  }
}

// Negative controls: clean scenarios explored UNinjected must be silent
// under the exact detector battery the campaign uses — if a detector fires
// here, its positives above are meaningless.
TEST(InjectionMatrix, NegativeControlsAreSilent) {
  detect::DetectorSuite::Options so;
  so.flagBarging = true;
  so.starvationGrantThreshold = 20;
  detect::DetectorSuite suite(so);
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    if (sc.faultSeeded) continue;
    sched::ExhaustiveExplorer::Options eo;
    eo.maxRuns = 4000;
    eo.maxSteps = 2000;
    eo.maxBranchDepth = 4;
    inject::ExploreConfig cfg;
    cfg.scenario(sc).captureRuns().explorer(eo);
    std::uint64_t runs = 0;
    const auto outcome = cfg.explore([&](const inject::RunView& view) {
      ++runs;
      EXPECT_EQ(view.result.outcome, sched::Outcome::Completed) << sc.name;
      EXPECT_EQ(view.deviationsApplied, 0u) << sc.name;
      if (view.trace != nullptr) {
        for (const auto& f : suite.analyze(*view.trace)) {
          ADD_FAILURE() << sc.name << ": " << f.describe(*view.trace);
        }
      }
      return true;
    });
    EXPECT_GT(runs, 0u) << sc.name;
    EXPECT_EQ(outcome.stats.deadlocks, 0u) << sc.name;
  }
}

// ---------------------------------------------------------------------------
// Determinism: same plan + same schedule prefix => same deviation => same
// findings, independent of the worker count.
// ---------------------------------------------------------------------------

namespace {

// Per-schedule signature of an injected exploration: deviation count plus
// every finding the campaign's battery produces on the run's trace.
using RunSignatures =
    std::map<std::vector<sched::ThreadId>,
             std::pair<std::uint64_t, std::vector<std::string>>>;

RunSignatures explorePlanSignatures(const inject::InjectionPlan& plan,
                                    std::size_t workers) {
  const scenarios::NamedScenario* fig2 = scenarios::find("fig2");
  detect::DetectorSuite::Options so;
  so.flagBarging = true;
  so.starvationGrantThreshold = 20;
  detect::DetectorSuite suite(so);
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 500;
  eo.maxSteps = 2000;
  eo.maxBranchDepth = 4;
  eo.workers = workers;
  inject::ExploreConfig cfg;
  cfg.scenario(*fig2).plan(plan).explorer(eo);
  RunSignatures sigs;
  (void)cfg.explore([&](const inject::RunView& view) {
    std::vector<std::string> findings;
    if (view.trace != nullptr) {
      for (const auto& f : suite.analyze(*view.trace)) {
        findings.push_back(f.describe(*view.trace));
      }
    }
    sigs[view.schedule] = {view.deviationsApplied, std::move(findings)};
    return true;
  });
  return sigs;
}

}  // namespace

TEST(InjectionMatrix, DeterministicAcrossWorkerCounts) {
  for (FailureClass cls :
       {FailureClass::FF_T5, FailureClass::EF_T3, FailureClass::EF_T4}) {
    const scenarios::NamedScenario* fig2 = scenarios::find("fig2");
    const inject::InjectionPlan plan = inject::defaultPlanFor(cls, *fig2);
    const RunSignatures one = explorePlanSignatures(plan, 1);
    const RunSignatures eight = explorePlanSignatures(plan, 8);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, eight) << plan.describe();
  }
}

// ---------------------------------------------------------------------------
// Campaign end-to-end
// ---------------------------------------------------------------------------

TEST(Campaign, FullMatrixIsOk) {
  const inject::CampaignResult result = inject::runCampaign();
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.cells.empty());
  EXPECT_FALSE(result.controls.empty());
  const std::string json = result.toJson();
  EXPECT_NE(json.find("\"schema\": \"confail.injection.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(result.human().find("INJECTION MATRIX OK"), std::string::npos);
}

// A campaign document's options name the whole reduction grid its cells
// ran under, not only the first reduction.
TEST(Campaign, DocumentNamesEveryReductionOfTheGrid) {
  inject::CampaignResult result;
  result.spec.reductions = {sched::ExhaustiveExplorer::Reduction::None,
                            sched::ExhaustiveExplorer::Reduction::Sleep};
  const confail::obs::JsonValue doc =
      confail::obs::parseJson(result.toJson());
  const confail::obs::JsonValue* options = doc.get("options");
  ASSERT_NE(options, nullptr);
  EXPECT_EQ(options->get("reduction"), nullptr);
  const confail::obs::JsonValue* reductions = options->get("reductions");
  ASSERT_NE(reductions, nullptr);
  ASSERT_TRUE(reductions->isArray());
  ASSERT_EQ(reductions->array.size(), 2u);
  EXPECT_EQ(reductions->array[0].string, "none");
  EXPECT_EQ(reductions->array[1].string, "sleep");
}

// A reduction may skip runs, never findings: at depth 6 every cell is
// caught, and classified, under sleep sets and under DPOR exactly as under
// full enumeration.  DPOR used to miss the FF-T1 elide-acquire cells of
// fig2, ff_t5 and ff_t5_small: its one run ended in an exception before
// any other thread had moved, and the race analysis found nothing to
// reverse.
TEST(Campaign, ReductionsCatchPerCellWhatFullEnumerationCatches) {
  inject::JobSpec spec;
  spec.maxBranchDepth = 6;
  const inject::CampaignResult none = inject::runCampaign(spec);
  ASSERT_FALSE(none.cells.empty());
  for (const sched::ExhaustiveExplorer::Reduction reduction :
       {sched::ExhaustiveExplorer::Reduction::Sleep,
        sched::ExhaustiveExplorer::Reduction::Dpor}) {
    spec.reductions = {reduction};
    const inject::CampaignResult reduced = inject::runCampaign(spec);
    SCOPED_TRACE(inject::reductionName(reduction));
    EXPECT_TRUE(reduced.ok());
    ASSERT_EQ(reduced.cells.size(), none.cells.size());
    for (std::size_t i = 0; i < none.cells.size(); ++i) {
      const inject::MatrixCell& want = none.cells[i];
      const inject::MatrixCell& got = reduced.cells[i];
      SCOPED_TRACE(want.scenario + " " + want.plan.describe());
      ASSERT_EQ(got.scenario, want.scenario);
      ASSERT_EQ(got.plan.describe(), want.plan.describe());
      EXPECT_EQ(got.caught, want.caught);
      EXPECT_EQ(got.classifierAgrees, want.classifierAgrees);
    }
  }
}

// ---------------------------------------------------------------------------
// Captured runs: fibers replace OS threads without changing the run
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kCaptureSteps = 20000;  // ExploreConfig's default

/// ExploreConfig::capture's run of `c`, on a thread-backed scheduler.
ev::Trace captureOnThreads(const confail::testing::CaptureCase& c) {
  ev::Trace trace;
  confail::obs::Registry reg;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler::Options so;
  so.maxSteps = kCaptureSteps;
  sched::VirtualScheduler s(strategy, so);
  scenarios::Instruments ins;
  ins.trace = &trace;
  ins.metrics = &reg;
  if (c.plan) {
    const inject::InjectionPlan plan = *c.plan;
    ins.decorate =
        [plan](confail::monitor::Runtime& rt) -> std::shared_ptr<void> {
      return std::make_shared<inject::Injector>(rt, plan);
    };
  }
  c.scenario->ifn(s, ins);
  (void)s.run();
  return trace;
}

}  // namespace

TEST(Capture, FiberBackedRunExportsLikeTheThreadBackedRun) {
  if (!sched::fibersSupported()) GTEST_SKIP() << "no fibers in this build";
  std::size_t longest = 0;
  for (const confail::testing::CaptureCase& c :
       confail::testing::registryCaptureCases()) {
    SCOPED_TRACE(c.label);
    ev::Trace fibers;
    confail::obs::Registry reg;
    inject::ExploreConfig cfg;
    sched::ExhaustiveExplorer::Options eo;
    eo.maxSteps = kCaptureSteps;
    cfg.scenario(*c.scenario).explorer(eo);
    if (c.plan) cfg.plan(*c.plan);
    cfg.capture(fibers, reg);
    EXPECT_EQ(confail::obs::toJsonl(fibers),
              confail::obs::toJsonl(captureOnThreads(c)));
    longest = std::max(longest, fibers.size());
  }
  // FF-T3's suppressed wait spins to the step limit: the longest capture.
  EXPECT_GE(longest, 20000u);
}
