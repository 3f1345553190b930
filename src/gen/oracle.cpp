#include "confail/gen/oracle.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "confail/detect/report_sink.hpp"
#include "confail/detect/suite.hpp"
#include "confail/gen/interpret.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/petri/cross_check.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/taxonomy/taxonomy.hpp"

namespace confail::gen {

namespace {

using Reduction = sched::ExhaustiveExplorer::Reduction;

/// Everything two equivalent explorations must agree on.  The snapshot_*
/// stats are deliberately absent: they count mechanism (checkpoint reuse),
/// which legitimately differs between incremental and replay.
struct Observables {
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t stepLimited = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t prunedBranches = 0;
  std::uint64_t dedupedStates = 0;
  std::uint64_t dporBacktracks = 0;
  bool exhausted = false;
  std::vector<sched::ThreadId> firstFailure;
  sched::Outcome firstFailureOutcome = sched::Outcome::Completed;
  std::set<std::uint64_t> deadlockSigs;

  bool operator==(const Observables&) const = default;
};

std::string scheduleStr(const std::vector<sched::ThreadId>& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(s[i]);
  }
  return out + "]";
}

/// First differing field, for failure details.
std::string diffObs(const std::string& la, const Observables& a,
                    const std::string& lb, const Observables& b) {
  auto num = [&](const char* f, std::uint64_t x, std::uint64_t y) {
    return std::string(f) + ": " + la + "=" + std::to_string(x) + " " + lb +
           "=" + std::to_string(y);
  };
  if (a.runs != b.runs) return num("runs", a.runs, b.runs);
  if (a.completed != b.completed) return num("completed", a.completed, b.completed);
  if (a.deadlocks != b.deadlocks) return num("deadlocks", a.deadlocks, b.deadlocks);
  if (a.stepLimited != b.stepLimited) {
    return num("stepLimited", a.stepLimited, b.stepLimited);
  }
  if (a.exceptions != b.exceptions) {
    return num("exceptions", a.exceptions, b.exceptions);
  }
  if (a.prunedBranches != b.prunedBranches) {
    return num("prunedBranches", a.prunedBranches, b.prunedBranches);
  }
  if (a.dedupedStates != b.dedupedStates) {
    return num("dedupedStates", a.dedupedStates, b.dedupedStates);
  }
  if (a.dporBacktracks != b.dporBacktracks) {
    return num("dporBacktracks", a.dporBacktracks, b.dporBacktracks);
  }
  if (a.exhausted != b.exhausted) {
    return num("exhausted", a.exhausted ? 1 : 0, b.exhausted ? 1 : 0);
  }
  if (a.deadlockSigs != b.deadlockSigs) {
    return num("distinct deadlock states", a.deadlockSigs.size(),
               b.deadlockSigs.size()) +
           " (or different states)";
  }
  if (a.firstFailure != b.firstFailure) {
    return "firstFailure: " + la + "=" + scheduleStr(a.firstFailure) + " " +
           lb + "=" + scheduleStr(b.firstFailure);
  }
  if (a.firstFailureOutcome != b.firstFailureOutcome) {
    return std::string("firstFailureOutcome: ") + la + "=" +
           sched::outcomeName(a.firstFailureOutcome) + " " + lb + "=" +
           sched::outcomeName(b.firstFailureOutcome);
  }
  return "equal";
}

struct ExploreOut {
  Observables obs;
  /// Raw failing schedules (collected only when asked).
  std::vector<std::vector<sched::ThreadId>> failures;
};

ExploreOut explorePr(const Program& p, Reduction red, std::size_t depth,
                     std::size_t workers, bool incremental,
                     std::uint64_t maxRuns, std::uint64_t maxSteps,
                     bool collectFailures, std::uint64_t& tally) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = maxRuns;
  eo.maxSteps = maxSteps;
  eo.maxBranchDepth = depth;
  eo.workers = workers;
  eo.reduction = red;
  eo.incremental = incremental;
  sched::ExhaustiveExplorer ex(eo);
  ExploreOut out;
  const auto stats = ex.explore(
      [&p](sched::VirtualScheduler& s) { interpret(p, s, {}); },
      [&](const std::vector<sched::ThreadId>& schedule,
          const sched::RunResult& r) {
        if (r.outcome == sched::Outcome::Deadlock) {
          out.obs.deadlockSigs.insert(
              inject::ExploreConfig::deadlockSignature(r));
        }
        if (collectFailures && r.outcome != sched::Outcome::Completed) {
          out.failures.push_back(schedule);
        }
        return true;
      });
  tally += stats.runs;
  out.obs.runs = stats.runs;
  out.obs.completed = stats.completed;
  out.obs.deadlocks = stats.deadlocks;
  out.obs.stepLimited = stats.stepLimited;
  out.obs.exceptions = stats.exceptions;
  out.obs.prunedBranches = stats.prunedBranches;
  out.obs.dedupedStates = stats.dedupedStates;
  out.obs.dporBacktracks = stats.dporBacktracks;
  out.obs.exhausted = stats.exhausted;
  out.obs.firstFailure = stats.firstFailure;
  out.obs.firstFailureOutcome = stats.firstFailureOutcome;
  return out;
}

/// Replay a schedule with state capture and canonicalize its trace.
std::vector<sched::ThreadId> canonicalFailure(
    const Program& p, const std::vector<sched::ThreadId>& schedule,
    std::uint64_t maxSteps) {
  sched::PrefixReplayStrategy strategy(schedule);
  sched::VirtualScheduler::Options so;
  so.maxSteps = maxSteps;
  so.captureState = true;
  sched::VirtualScheduler s(strategy, so);
  interpret(p, s, {});
  return sched::canonicalTraceWitness(s.run());
}

/// The DropDeadlocks sabotage: the reference side misreports deadlocks.
void applySabotage(Observables& o) {
  o.completed += o.deadlocks;
  o.deadlocks = 0;
  o.deadlockSigs.clear();
  if (o.firstFailureOutcome == sched::Outcome::Deadlock) {
    o.firstFailure.clear();
    o.firstFailureOutcome = sched::Outcome::Completed;
  }
}

OracleOutcome incrementalVsReplay(const Program& p, const OracleConfig& oc,
                                  std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "incremental-vs-replay";
  for (Reduction red : {Reduction::None, Reduction::Dpor}) {
    auto inc = explorePr(p, red, oc.maxBranchDepth, 1, true, oc.maxRuns,
                         oc.maxSteps, false, tally);
    auto rep = explorePr(p, red, oc.maxBranchDepth, 1, false, oc.maxRuns,
                         oc.maxSteps, false, tally);
    if (!inc.obs.exhausted || !rep.obs.exhausted) {
      out.skipped = true;
      out.detail = "bounded tree not exhausted within budget";
      return out;
    }
    if (oc.sabotage == Sabotage::DropDeadlocks) applySabotage(rep.obs);
    if (!(inc.obs == rep.obs)) {
      out.ok = false;
      out.detail = std::string("reduction=") +
                   inject::reductionName(red) + ": " +
                   diffObs("incremental", inc.obs, "replay", rep.obs);
      return out;
    }
  }
  return out;
}

OracleOutcome reductionEquivalence(const Program& p, const OracleConfig& oc,
                                   std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "reduction-equivalence";
  const std::size_t unbounded = static_cast<std::size_t>(-1);
  auto none = explorePr(p, Reduction::None, unbounded, 1, true, oc.fullMaxRuns,
                        oc.maxSteps, true, tally);
  if (!none.obs.exhausted) {
    out.skipped = true;
    out.detail = "full enumeration not exhausted in " +
                 std::to_string(oc.fullMaxRuns) + " runs";
    return out;
  }
  // Canonical witness comparison needs a replay per failing run; above the
  // cap, compare only the failure sets.
  const bool canon = none.failures.size() <= oc.canonicalizeCap;
  std::vector<sched::ThreadId> minCanon;
  if (canon) {
    for (const auto& f : none.failures) {
      auto c = canonicalFailure(p, f, oc.maxSteps);
      if (minCanon.empty() || c < minCanon) minCanon = std::move(c);
    }
  }
  for (Reduction red : {Reduction::Sleep, Reduction::Dpor}) {
    auto r = explorePr(p, red, unbounded, 1, true, oc.fullMaxRuns, oc.maxSteps,
                       false, tally);
    const std::string label = inject::reductionName(red);
    if (!r.obs.exhausted) {
      out.ok = false;
      out.detail = label + " did not exhaust a tree full enumeration did";
      return out;
    }
    if (r.obs.runs > none.obs.runs) {
      out.ok = false;
      out.detail = label + " ran more than full enumeration (" +
                   std::to_string(r.obs.runs) + " > " +
                   std::to_string(none.obs.runs) + ")";
      return out;
    }
    if (r.obs.deadlockSigs != none.obs.deadlockSigs) {
      out.ok = false;
      out.detail = label + ": distinct deadlock states " +
                   std::to_string(r.obs.deadlockSigs.size()) + " != " +
                   std::to_string(none.obs.deadlockSigs.size()) +
                   " (or different states)";
      return out;
    }
    if (r.obs.firstFailure.empty() != none.failures.empty()) {
      out.ok = false;
      out.detail = label + ": failure presence mismatch vs full enumeration";
      return out;
    }
    // Only DPOR promises the canonical lex-min witness (Sleep reports the
    // lex-min *executed* failing schedule, which may be a different
    // representative of the same trace).
    if (red == Reduction::Dpor && canon && r.obs.firstFailure != minCanon) {
      out.ok = false;
      out.detail = "dpor witness " + scheduleStr(r.obs.firstFailure) +
                   " != min canonical failure " + scheduleStr(minCanon);
      return out;
    }
  }
  return out;
}

OracleOutcome workerDeterminism(const Program& p, const OracleConfig& oc,
                                std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "worker-determinism";
  if (oc.workerCounts.size() < 2) {
    out.skipped = true;
    out.detail = "fewer than two worker counts configured";
    return out;
  }
  for (Reduction red :
       {Reduction::None, Reduction::Sleep, Reduction::Dpor}) {
    auto base = explorePr(p, red, oc.maxBranchDepth, oc.workerCounts[0], true,
                          oc.maxRuns, oc.maxSteps, false, tally);
    if (!base.obs.exhausted) {
      out.skipped = true;
      out.detail = "bounded tree not exhausted within budget";
      return out;
    }
    for (std::size_t i = 1; i < oc.workerCounts.size(); ++i) {
      auto other = explorePr(p, red, oc.maxBranchDepth, oc.workerCounts[i],
                             true, oc.maxRuns, oc.maxSteps, false, tally);
      if (!(base.obs == other.obs)) {
        out.ok = false;
        out.detail = std::string("reduction=") + inject::reductionName(red) +
                     " workers=" + std::to_string(oc.workerCounts[i]) + ": " +
                     diffObs("w" + std::to_string(oc.workerCounts[0]),
                             base.obs,
                             "w" + std::to_string(oc.workerCounts[i]),
                             other.obs);
        return out;
      }
    }
  }
  return out;
}

OracleOutcome cleanNegativeControl(const Program& p, const OracleConfig& oc,
                                   std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "clean-negative-control";
  const auto sc = asScenario(p, "gen_clean");
  // Single-threaded monitor use is expected in tiny generated programs, so
  // the unnecessary-sync structural critique is excluded — every other
  // detector must stay silent on a clean program.
  detect::DetectorSuite::Options dso;
  dso.includeUnnecessarySync = false;
  detect::DetectorSuite suite(dso);

  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = oc.maxRuns;
  eo.maxSteps = oc.maxSteps;
  eo.maxBranchDepth = oc.maxBranchDepth;
  eo.workers = 1;
  inject::ExploreConfig cfg;
  cfg.scenario(sc).captureRuns().explorer(eo);

  std::uint64_t failing = 0;
  std::uint64_t findings = 0;
  std::string first;
  const auto outcome = cfg.explore([&](const inject::RunView& v) {
    if (v.result.outcome != sched::Outcome::Completed) {
      ++failing;
      if (first.empty()) {
        first = std::string("outcome ") + sched::outcomeName(v.result.outcome);
      }
    }
    if (v.trace != nullptr) {
      const auto fs = suite.analyze(*v.trace);
      findings += fs.size();
      if (!fs.empty() && first.empty()) first = fs.front().describe(*v.trace);
    }
    return true;
  });
  tally += outcome.stats.runs;
  if (failing != 0 || findings != 0) {
    out.ok = false;
    out.detail = std::to_string(failing) + " failing runs, " +
                 std::to_string(findings) + " findings on a clean program (" +
                 first + ")";
  }
  return out;
}

OracleOutcome injectionDetection(const Program& p, const OracleConfig& oc,
                                 std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "injection-detection";
  const bool hasWait = p.has(OpKind::Wait);
  const bool hasNotify = p.has(OpKind::Notify) || p.has(OpKind::NotifyAll);
  // Classes whose detection the program's structure *guarantees* (see the
  // header comment): anything weaker would make the oracle flaky.
  std::vector<taxonomy::FailureClass> classes;
  if (p.monitorShared() && !hasWait) {
    classes.push_back(taxonomy::FailureClass::FF_T4);
  }
  if (hasWait) classes.push_back(taxonomy::FailureClass::EF_T3);
  if (hasWait && !hasNotify) classes.push_back(taxonomy::FailureClass::EF_T5);
  if (classes.empty()) {
    out.skipped = true;
    out.detail = "no structurally guaranteed class applies";
    return out;
  }

  const auto sc = asScenario(p, "gen_fuzz");
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = oc.maxRuns;
  eo.maxSteps = oc.maxSteps;
  eo.maxBranchDepth = oc.maxBranchDepth;
  eo.workers = 1;
  for (taxonomy::FailureClass cls : classes) {
    inject::InjectionPlan plan;
    plan.cls = cls;
    // FF-T4 leaks every outermost unlock (deadlock guaranteed); the wake
    // injections fire once so one deviated wake must be caught.
    if (cls != taxonomy::FailureClass::FF_T4) plan.count = 1;
    const auto cell = inject::runCell(sc, plan, eo);
    tally += cell.runs;
    if (cell.deviatedRuns > 0 && !cell.caught) {
      out.ok = false;
      out.detail = std::string(taxonomy::failureClassName(cls)) +
                   " injected (" + std::to_string(cell.deviatedRuns) +
                   " deviated runs) but no detector caught it";
      return out;
    }
  }
  return out;
}

OracleOutcome streamingEquivalence(const Program& p, const OracleConfig& oc,
                                   std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "streaming-equivalence";
  const auto sc = asScenario(p, "gen_stream");

  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = oc.maxRuns;
  eo.maxSteps = oc.maxSteps;
  eo.maxBranchDepth = oc.maxBranchDepth;
  eo.workers = 1;
  inject::ExploreConfig cfg;
  cfg.scenario(sc).captureRuns().explorer(eo);

  std::size_t checked = 0;
  const auto outcome = cfg.explore([&](const inject::RunView& v) {
    if (v.trace == nullptr) return true;
    const events::Trace& trace = *v.trace;

    detect::DetectorSuite suite;
    detect::ReportSink offline;
    offline.setSource("differential");
    for (const auto& report : suite.analyzeEach(trace)) {
      offline.addAll(report.detector, report.findings);
    }

    ingest::IngestPipeline pipe(ingest::IngestOptions{});
    detect::ReportSink online;
    online.setSource("differential");
    std::istringstream in(obs::toJsonl(trace));
    const ingest::IngestStats st = pipe.run(in, online);

    if (st.malformed != 0 || st.truncated != 0) {
      out.ok = false;
      out.detail = "lossless JSONL export decoded with " +
                   std::to_string(st.malformed) + " malformed lines, " +
                   std::to_string(st.truncated) + " truncated tails";
      return false;
    }
    if (st.eventsAnalyzed != trace.size()) {
      out.ok = false;
      out.detail = "streamed " + std::to_string(st.eventsAnalyzed) +
                   " events, trace recorded " + std::to_string(trace.size());
      return false;
    }
    const std::string offDoc = offline.toJson(detect::TraceNames(trace));
    const std::string onDoc = online.toJson(pipe.names());
    if (offDoc != onDoc) {
      out.ok = false;
      out.detail = "offline and streaming findings documents differ (" +
                   std::to_string(offline.size()) + " vs " +
                   std::to_string(online.size()) + " findings)";
      return false;
    }
    ++checked;
    return checked < oc.streamingRunCap;
  });
  tally += outcome.stats.runs;
  if (out.ok && checked == 0) {
    out.skipped = true;
    out.detail = "no captured runs within budget";
  }
  return out;
}

OracleOutcome modelCrossCheck(const Program& p, const OracleConfig& oc,
                              std::uint64_t& tally) {
  OracleOutcome out;
  out.oracle = "model-cross-check";
  const auto sc = asScenario(p, "gen_model");

  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = oc.maxRuns;
  eo.maxSteps = oc.maxSteps;
  eo.maxBranchDepth = oc.maxBranchDepth;
  eo.workers = 1;
  inject::ExploreConfig cfg;
  cfg.scenario(sc).captureRuns().explorer(eo);

  petri::ModelCrossChecker checker;
  const auto outcome = cfg.explore([&](const inject::RunView& v) {
    if (v.trace != nullptr) {
      checker.addRun(*v.trace, v.result.outcome != sched::Outcome::Completed);
    }
    return checker.report().ok;
  });
  tally += outcome.stats.runs;

  const petri::CrossCheckReport& rep = checker.report();
  if (!rep.ok) {
    out.ok = false;
    out.detail = rep.firstViolation;
    return out;
  }
  if (rep.inScopeRuns == 0) {
    out.skipped = true;
    out.detail = rep.runs == 0 ? "no captured runs within budget"
                               : "no in-scope runs (nested monitors or no"
                                 " monitor activity)";
  }
  return out;
}

}  // namespace

const std::vector<std::string>& oracleNames() {
  static const std::vector<std::string> kNames = {
      "incremental-vs-replay", "reduction-equivalence", "worker-determinism",
      "clean-negative-control", "injection-detection",
      "streaming-equivalence", "model-cross-check"};
  return kNames;
}

OracleConfig onlyOracle(const OracleConfig& oc, const std::string& name) {
  OracleConfig c = oc;
  c.checkIncremental = name == "incremental-vs-replay";
  c.checkReductions = name == "reduction-equivalence";
  c.checkWorkers = name == "worker-determinism";
  c.checkClean = name == "clean-negative-control";
  c.checkInjection = name == "injection-detection";
  c.checkStreaming = name == "streaming-equivalence";
  c.checkModel = name == "model-cross-check";
  return c;
}

OracleReport runOracles(const Program& p, const OracleConfig& oc) {
  OracleReport report;
  if (oc.checkIncremental) {
    report.outcomes.push_back(
        incrementalVsReplay(p, oc, report.exploreRuns));
  }
  if (oc.checkReductions) {
    report.outcomes.push_back(reductionEquivalence(p, oc, report.exploreRuns));
  }
  if (oc.checkWorkers) {
    report.outcomes.push_back(workerDeterminism(p, oc, report.exploreRuns));
  }
  if (oc.checkClean) {
    report.outcomes.push_back(cleanNegativeControl(p, oc, report.exploreRuns));
  }
  if (oc.checkInjection) {
    report.outcomes.push_back(injectionDetection(p, oc, report.exploreRuns));
  }
  if (oc.checkStreaming) {
    report.outcomes.push_back(streamingEquivalence(p, oc, report.exploreRuns));
  }
  if (oc.checkModel) {
    report.outcomes.push_back(modelCrossCheck(p, oc, report.exploreRuns));
  }
  return report;
}

}  // namespace confail::gen
