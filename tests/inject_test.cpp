// Tests for confail::inject: the deviation-operator library, the
// protocol-deviation detector that closes the oracle gap for EF-T2/EF-T3/
// EF-T5/FF-T3, the negative controls, and the determinism contract of
// injection under the parallel explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
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
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/monitor/snapshot_cell.hpp"
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
// The scheduler's registry of program state
// ---------------------------------------------------------------------------

namespace confail::sched {

/// Reaches the snapshot primitives that only the incremental runner uses
/// in production, so a test can take a snapshot around a plain run().
struct SnapshotTestAccess {
  static void onDecision(
      VirtualScheduler& s,
      std::function<void(std::uint64_t step, std::size_t runnable)> hook) {
    s.checkpointHook_ = std::move(hook);
  }
  static auto save(VirtualScheduler& s) { return s.saveSnapshot(); }
  template <typename Snapshot>
  static bool restore(VirtualScheduler& s, const Snapshot& snap) {
    return s.restoreSnapshot(snap);
  }
  /// Unwind the restored threads, as the end of a run does.
  static void unwind(VirtualScheduler& s) { s.abortRun(); }
};

}  // namespace confail::sched

namespace {

/// fig2 on `s` with an FF-T5 plan that suppresses the second notify.
void buildFig2WithInjector(sched::VirtualScheduler& s) {
  inject::InjectionPlan plan;
  plan.cls = FailureClass::FF_T5;
  plan.after = 1;
  plan.count = 1;
  scenarios::Instruments ins;
  ins.decorate = [plan](confail::monitor::Runtime& rt) {
    return std::shared_ptr<void>(std::make_shared<inject::Injector>(rt, plan));
  };
  scenarios::find("fig2")->ifn(s, ins);
}

}  // namespace

// Every object of fig2's program state registers once, into one list:
// the Runtime, the buffer's monitor, its size variable, its item cell and
// the Injector.
TEST(StateRegistry, HoldsEachObjectOfFig2Once) {
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler s(strategy);
  buildFig2WithInjector(s);

  namespace mon = confail::monitor;
  std::map<std::string, int> kinds;
  for (sched::StateSource* src : s.stateSources()) {
    if (dynamic_cast<mon::Runtime*>(src) != nullptr) {
      ++kinds["runtime"];
    } else if (dynamic_cast<mon::Monitor*>(src) != nullptr) {
      ++kinds["monitor"];
    } else if (dynamic_cast<mon::SharedVar<int>*>(src) != nullptr) {
      ++kinds["shared_var"];
    } else if (dynamic_cast<mon::SnapshotCell<std::deque<int>>*>(src) !=
               nullptr) {
      ++kinds["snapshot_cell"];
    } else if (dynamic_cast<inject::Injector*>(src) != nullptr) {
      ++kinds["injector"];
    } else {
      ++kinds["other"];
    }
  }
  EXPECT_EQ(kinds, (std::map<std::string, int>{{"injector", 1},
                                               {"monitor", 1},
                                               {"runtime", 1},
                                               {"shared_var", 1},
                                               {"snapshot_cell", 1}}));
  const std::set<sched::StateSource*> distinct(s.stateSources().begin(),
                                               s.stateSources().end());
  EXPECT_EQ(distinct.size(), s.stateSources().size());
  (void)s.run();
}

// A snapshot saved mid-run and restored after the run has ended brings
// the fingerprint back to its value at the save.
TEST(StateRegistry, RestoredSnapshotHasTheSavedFingerprint) {
  if (!sched::fibersSupported()) {
    GTEST_SKIP() << "snapshots need fibers";
  }
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler s(strategy);
  buildFig2WithInjector(s);

  // Save while the buffer holds an item: the rest of the run empties it,
  // so the restore has the shared variable to rewind, not just threads.
  confail::monitor::SharedVar<int>* size = nullptr;
  for (sched::StateSource* src : s.stateSources()) {
    if (auto* v = dynamic_cast<confail::monitor::SharedVar<int>*>(src)) {
      size = v;
    }
  }
  ASSERT_NE(size, nullptr);

  using Access = sched::SnapshotTestAccess;
  decltype(Access::save(s)) snap;
  std::uint64_t atSave = 0;
  Access::onDecision(s, [&](std::uint64_t, std::size_t runnable) {
    if (snap == nullptr && size->peek() == 1 && runnable > 1) {
      snap = Access::save(s);
      atSave = s.fingerprint();
    }
  });
  (void)s.run();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(size->peek(), 0);
  EXPECT_NE(s.fingerprint(), atSave);

  ASSERT_TRUE(Access::restore(s, *snap));
  EXPECT_EQ(size->peek(), 1);
  EXPECT_EQ(s.fingerprint(), atSave);
  Access::unwind(s);
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
// Captured runs: every backend exports the same bytes
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kCaptureSteps = 20000;  // ExploreConfig's default

/// FNV-1a 64 of `bytes`.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct CaptureDigest {
  const char* label;
  std::uint64_t jsonlFnv1a;  ///< of obs::toJsonl of the captured trace
};

/// One entry per registryCaptureCases() case, in order: the digest of the
/// case's captured run as exported when every logical thread was an OS
/// thread of its own.  Builds with a fiber switch now run them on fibers,
/// sanitized builds still on OS threads; both must export these bytes.
constexpr CaptureDigest kCaptureDigests[] = {
    {"fig2 clean", 0xd08d2b0db1d3d3acull},
    {"fig2 FF-T1", 0xd6605c87a1ae23baull},
    {"fig2 FF-T2", 0xab623518de224b3full},
    {"fig2 EF-T2", 0x153ea667f2ce7d32ull},
    {"fig2 FF-T3", 0xb1f49b9bb50d129dull},
    {"fig2 EF-T3", 0xd08d2b0db1d3d3acull},
    {"fig2 FF-T4", 0x58c2e71af00c5511ull},
    {"fig2 EF-T4", 0xc2e2aae2d312b904ull},
    {"fig2 FF-T5", 0xee07eeeca622e5edull},
    {"fig2 EF-T5", 0xd08d2b0db1d3d3acull},
    {"ff_t5 clean", 0xaa8ada45c2d41428ull},
    {"ff_t5 FF-T1", 0xd6605c87a1ae23baull},
    {"ff_t5 FF-T2", 0x50c24f3dc27374faull},
    {"ff_t5 EF-T2", 0x6976fe2476a85ce2ull},
    {"ff_t5 FF-T3", 0xe1ceeee6f12dcc1aull},
    {"ff_t5 EF-T3", 0xaa8ada45c2d41428ull},
    {"ff_t5 FF-T4", 0xae6c301aa4c9867eull},
    {"ff_t5 EF-T4", 0xc2e2aae2d312b904ull},
    {"ff_t5 FF-T5", 0xee07eeeca622e5edull},
    {"ff_t5 EF-T5", 0xaa8ada45c2d41428ull},
    {"ff_t5_small clean", 0x52bcba30cc971facull},
    {"ff_t5_small FF-T1", 0xd6605c87a1ae23baull},
    {"ff_t5_small FF-T2", 0x1b1f5088f5490e5eull},
    {"ff_t5_small EF-T2", 0xc170b335fffe4da6ull},
    {"ff_t5_small FF-T3", 0xe92715365b992ab6ull},
    {"ff_t5_small EF-T3", 0x52bcba30cc971facull},
    {"ff_t5_small FF-T4", 0xd903a32907841925ull},
    {"ff_t5_small EF-T4", 0xc2e2aae2d312b904ull},
    {"ff_t5_small FF-T5", 0xa9eeafa4a9921555ull},
    {"ff_t5_small EF-T5", 0x52bcba30cc971facull},
    {"lock_order clean", 0xec4ecbb3d055e0adull},
    {"lock_order FF-T1", 0xad0a259345b7b99dull},
    {"lock_order FF-T2", 0x7d2881d155b1d784ull},
    {"lock_order EF-T2", 0xec4ecbb3d055e0adull},
    {"lock_order FF-T4", 0xec4ecbb3d055e0adull},
    {"lock_order EF-T4", 0x60460af806eaace5ull},
    {"disjoint clean", 0xb7a73c69a5acd02full},
    {"gen_selfwait clean", 0xe3973b65dd277ed5ull},
    {"gen_selfwait FF-T1", 0x582f2513aeb7b4aaull},
    {"gen_selfwait FF-T2", 0x97675dfb01109685ull},
    {"gen_selfwait EF-T2", 0xe3973b65dd277ed5ull},
    {"gen_selfwait FF-T3", 0x54e9567930f58c61ull},
    {"gen_selfwait EF-T3", 0xe3973b65dd277ed5ull},
    {"gen_selfwait FF-T4", 0xe3973b65dd277ed5ull},
    {"gen_selfwait EF-T4", 0x8e5bd9befa5e8b9bull},
    {"gen_selfwait FF-T5", 0xe3973b65dd277ed5ull},
    {"gen_selfwait EF-T5", 0xe3973b65dd277ed5ull},
    {"gen_lost_signal clean", 0x2502c75661ca23cfull},
    {"gen_lost_signal FF-T1", 0x582f2513aeb7b4aaull},
    {"gen_lost_signal FF-T2", 0xccd11f64565e75a6ull},
    {"gen_lost_signal EF-T2", 0x2502c75661ca23cfull},
    {"gen_lost_signal FF-T3", 0x38e310c1ecaa092bull},
    {"gen_lost_signal EF-T3", 0x2502c75661ca23cfull},
    {"gen_lost_signal FF-T4", 0xc8b9b4e541ee3c72ull},
    {"gen_lost_signal EF-T4", 0x40a42992d5d587e4ull},
    {"gen_lost_signal FF-T5", 0x9c42e3ef4bb3a6c1ull},
    {"gen_lost_signal EF-T5", 0x2502c75661ca23cfull},
    {"gen_unguarded_write clean", 0xbaf1d279b7824840ull},
    {"gen_unguarded_write FF-T1", 0x2d24dcd2a5f2d88aull},
    {"gen_unguarded_write FF-T2", 0xb78582e605acf2efull},
    {"gen_unguarded_write EF-T2", 0xbaf1d279b7824840ull},
    {"gen_unguarded_write FF-T4", 0xfa5de6a267a20e78ull},
    {"gen_unguarded_write EF-T4", 0xa16dfee1f709b1bcull},
};

}  // namespace

TEST(Capture, EveryBackendExportsTheThreadBackedDigests) {
  const std::vector<confail::testing::CaptureCase> cases =
      confail::testing::registryCaptureCases();
  ASSERT_EQ(cases.size(), std::size(kCaptureDigests));
  std::size_t longest = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const confail::testing::CaptureCase& c = cases[i];
    SCOPED_TRACE(c.label);
    EXPECT_EQ(c.label, kCaptureDigests[i].label);
    ev::Trace trace;
    confail::obs::Registry reg;
    inject::ExploreConfig cfg;
    sched::ExhaustiveExplorer::Options eo;
    eo.maxSteps = kCaptureSteps;
    cfg.scenario(*c.scenario).explorer(eo);
    if (c.plan) cfg.plan(*c.plan);
    cfg.capture(trace, reg);
    EXPECT_EQ(fnv1a(confail::obs::toJsonl(trace)),
              kCaptureDigests[i].jsonlFnv1a);
    longest = std::max(longest, trace.size());
  }
  // FF-T3's suppressed wait spins to the step limit: the longest capture.
  EXPECT_GE(longest, 20000u);
}
