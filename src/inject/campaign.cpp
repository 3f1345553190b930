#include "confail/inject/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "confail/detect/report_sink.hpp"
#include "confail/detect/suite.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/json.hpp"
#include "confail/taxonomy/classifier.hpp"
#include "confail/taxonomy/table1.hpp"

namespace confail::inject {

using components::scenarios::NamedScenario;
using taxonomy::FailureClass;

bool planApplies(FailureClass cls, const NamedScenario& sc) {
  if (!isInjectable(cls)) return false;
  switch (cls) {
    case FailureClass::FF_T1:
    case FailureClass::FF_T2:
    case FailureClass::FF_T4:
    case FailureClass::EF_T2:
    case FailureClass::EF_T4:
      return sc.usesMonitor;
    case FailureClass::FF_T3:
    case FailureClass::FF_T5:
    case FailureClass::EF_T3:
    case FailureClass::EF_T5:
      return sc.usesWaitNotify;
    default:
      return false;
  }
}

InjectionPlan defaultPlanFor(FailureClass cls, const NamedScenario& sc) {
  InjectionPlan p;
  p.cls = cls;
  switch (cls) {
    case FailureClass::FF_T1:
      p.count = 1;  // one elided acquire: the race exists from then on
      break;
    case FailureClass::FF_T2:
      p.victim = sc.starveVictim;  // starve one named thread forever
      break;
    case FailureClass::FF_T3:
      break;  // suppress every wait: the guard loop degenerates to a spin
    case FailureClass::FF_T4:
      break;  // leak every outermost unlock
    case FailureClass::FF_T5:
      break;  // lose every notification
    case FailureClass::EF_T2:
      break;  // barge on every multi-entry grant
    case FailureClass::EF_T3:
      p.count = 1;  // one spurious wakeup
      break;
    case FailureClass::EF_T4:
      p.count = 1;  // one premature release
      break;
    case FailureClass::EF_T5:
      p.count = 1;  // one phantom notification
      break;
    default:
      break;
  }
  return p;
}

std::vector<std::string> MatrixCell::caughtBy() const {
  std::vector<std::string> out;
  for (const DetectorCell& d : detectors) {
    if (d.hits > 0) out.push_back(d.detector);
  }
  return out;
}

namespace {

double elapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

detect::DetectorSuite::Options suiteOptions() {
  detect::DetectorSuite::Options so;
  // Every registry scenario's monitors use the default Fifo policies, so
  // the barging oracle (EF-T2) is sound here; lower the starvation
  // threshold so a starved acquire is also caught in-trace within the
  // campaign's small step budget.
  so.flagBarging = true;
  so.starvationGrantThreshold = 20;
  return so;
}

}  // namespace

MatrixCell runCell(const NamedScenario& sc, const InjectionPlan& plan,
                   const sched::ExhaustiveExplorer::Options& eo,
                   detect::ReportSink* sink) {
  MatrixCell cell;
  cell.scenario = sc.name;
  cell.cls = plan.cls;
  cell.reduction = eo.reduction;
  cell.plan = plan;
  cell.hostConcurrency = std::thread::hardware_concurrency();
  const auto started = std::chrono::steady_clock::now();

  detect::DetectorSuite suite(suiteOptions());
  for (const char* name : suite.detectorNames()) {
    cell.detectors.push_back(DetectorCell{name});
  }

  ExploreConfig cfg;
  cfg.scenario(sc).plan(plan).explorer(eo);
  (void)cfg.explore([&](const RunView& view) {
    ++cell.runs;
    if (view.result.outcome != sched::Outcome::Completed) ++cell.failingRuns;
    if (view.deviationsApplied == 0 || view.trace == nullptr) return true;
    ++cell.deviatedRuns;

    const auto reports = suite.analyzeEach(*view.trace);
    std::vector<detect::Finding> all;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      cell.detectors[i].findings += reports[i].findings.size();
      if (sink != nullptr) {
        sink->addAll(reports[i].detector, reports[i].findings);
      }
      for (const detect::Finding& f : reports[i].findings) {
        const auto classes = taxonomy::Classifier::classesOf(f.kind);
        if (std::find(classes.begin(), classes.end(), plan.cls) !=
            classes.end()) {
          ++cell.detectors[i].hits;
          cell.caught = true;
        }
      }
      all.insert(all.end(), reports[i].findings.begin(),
                 reports[i].findings.end());
    }
    if (!cell.classifierAgrees) {
      taxonomy::FailureReport report;
      taxonomy::Classifier::addFindings(report, all, *view.trace);
      taxonomy::Classifier::addRunOutcome(report, view.result, *view.trace);
      if (report.has(plan.cls)) cell.classifierAgrees = true;
    }
    // The cell's question is answered once the class is both caught by a
    // detector and confirmed by the classifier; stop spending runs on it.
    return !(cell.caught && cell.classifierAgrees);
  });
  cell.wallMs = elapsedMs(started);
  return cell;
}

ControlCell runControl(const NamedScenario& sc,
                       const sched::ExhaustiveExplorer::Options& eo,
                       detect::ReportSink* sink) {
  ControlCell cell;
  cell.scenario = sc.name;
  cell.reduction = eo.reduction;
  cell.hostConcurrency = std::thread::hardware_concurrency();
  const auto started = std::chrono::steady_clock::now();
  detect::DetectorSuite suite(suiteOptions());
  ExploreConfig cfg;
  cfg.scenario(sc).captureRuns().explorer(eo);
  (void)cfg.explore([&](const RunView& view) {
    ++cell.runs;
    if (view.result.outcome != sched::Outcome::Completed) ++cell.failingRuns;
    if (view.trace != nullptr) {
      for (const auto& report : suite.analyzeEach(*view.trace)) {
        cell.findings += report.findings.size();
        if (sink != nullptr) {
          sink->addAll(report.detector, report.findings);
        }
      }
    }
    return true;
  });
  cell.wallMs = elapsedMs(started);
  return cell;
}

CampaignResult runCampaign(const JobSpec& spec) {
  RunShardOptions shardOpts;
  shardOpts.resolveNames = false;  // names are unused on this path
  std::vector<ShardResult> results;
  for (const ShardSpec& shard : expandShards(spec)) {
    results.push_back(runShard(spec, shard, shardOpts));
  }
  return campaignFromShards(spec, results);
}

bool CampaignResult::ok() const {
  // Every injectable class must be caught (with classifier agreement) on
  // the reference scenario.
  for (FailureClass cls : injectableClasses()) {
    bool found = false;
    for (const MatrixCell& c : cells) {
      if (c.scenario == "fig2" && c.cls == cls) {
        if (!c.caught || !c.classifierAgrees) return false;
        found = true;
      }
    }
    if (!found) return false;
  }
  for (const ControlCell& c : controls) {
    if (c.findings != 0 || c.failingRuns != 0) return false;
  }
  return true;
}

std::string CampaignResult::toJson() const {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.injection.v1");
  w.key("options");
  w.beginObject();
  w.field("max_runs", spec.maxRuns);
  w.field("max_steps", spec.maxSteps);
  w.field("max_branch_depth", static_cast<std::uint64_t>(spec.maxBranchDepth));
  w.field("workers", static_cast<std::uint64_t>(spec.workers));
  w.key("reductions");
  w.beginArray();
  for (const sched::ExhaustiveExplorer::Reduction r : spec.reductions) {
    w.value(reductionName(r));
  }
  w.endArray();
  w.endObject();
  w.key("matrix");
  w.beginArray();
  for (const MatrixCell& c : cells) {
    w.beginObject();
    w.field("scenario", c.scenario);
    w.field("class", taxonomy::failureClassName(c.cls));
    w.field("operator", operatorName(c.cls));
    w.field("reduction", reductionName(c.reduction));
    w.field("plan", c.plan.describe());
    w.field("runs", c.runs);
    w.field("deviated_runs", c.deviatedRuns);
    w.field("failing_runs", c.failingRuns);
    w.field("caught", c.caught);
    w.field("classifier_agrees", c.classifierAgrees);
    w.field("wall_ms", c.wallMs);
    w.field("host_concurrency", static_cast<std::uint64_t>(c.hostConcurrency));
    w.key("caught_by");
    w.beginArray();
    for (const std::string& name : c.caughtBy()) w.value(name);
    w.endArray();
    w.key("detectors");
    w.beginObject();
    for (const DetectorCell& d : c.detectors) {
      w.key(d.detector);
      w.beginObject();
      w.field("findings", d.findings);
      w.field("hits", d.hits);
      w.endObject();
    }
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.key("controls");
  w.beginArray();
  for (const ControlCell& c : controls) {
    w.beginObject();
    w.field("scenario", c.scenario);
    w.field("reduction", reductionName(c.reduction));
    w.field("runs", c.runs);
    w.field("findings", c.findings);
    w.field("failing_runs", c.failingRuns);
    w.field("wall_ms", c.wallMs);
    w.field("host_concurrency", static_cast<std::uint64_t>(c.hostConcurrency));
    w.endObject();
  }
  w.endArray();
  w.field("ok", ok());
  w.endObject();
  return w.str();
}

std::string CampaignResult::human() const {
  std::ostringstream os;

  // Table 1 with the fig2 detection column.
  std::map<FailureClass, std::string> column;
  for (FailureClass cls : taxonomy::allFailureClasses()) {
    if (!isInjectable(cls)) {
      column[cls] = "not injectable (structural)";
      continue;
    }
    std::string entry = "MISSED";
    for (const MatrixCell& c : cells) {
      if (c.scenario != "fig2" || c.cls != cls) continue;
      const auto names = c.caughtBy();
      if (!names.empty()) {
        entry.clear();
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (i > 0) entry += ", ";
          entry += names[i];
        }
        if (c.classifierAgrees) entry += " (+classifier)";
      }
    }
    column[cls] = entry;
  }
  os << taxonomy::renderTable1With("Detected by (fig2 injection)", column);

  os << "\ninjection matrix (" << cells.size() << " cells):\n";
  for (const MatrixCell& c : cells) {
    os << "  " << c.scenario << " x " << taxonomy::failureClassName(c.cls)
       << " [" << operatorName(c.cls) << "]: runs " << c.runs << ", deviated "
       << c.deviatedRuns << ", failing " << c.failingRuns << " -> "
       << (c.caught ? "caught" : "MISSED");
    const auto names = c.caughtBy();
    if (!names.empty()) {
      os << " by ";
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) os << ", ";
        os << names[i];
      }
    }
    os << (c.classifierAgrees ? "; classifier agrees" : "; classifier silent")
       << '\n';
  }

  if (!controls.empty()) {
    os << "negative controls (uninjected, must be silent):\n";
    for (const ControlCell& c : controls) {
      os << "  " << c.scenario << ": runs " << c.runs << ", findings "
         << c.findings << ", failing " << c.failingRuns
         << (c.findings == 0 && c.failingRuns == 0 ? " -> clean"
                                                   : " -> NOT CLEAN")
         << '\n';
    }
  }

  os << (ok() ? "INJECTION MATRIX OK" : "INJECTION MATRIX FAIL") << '\n';
  return os.str();
}

}  // namespace confail::inject
