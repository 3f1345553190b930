// confail petri — N x M thread/lock net analysis and the explorer ⊆ net
// cross-check oracle.
//
// Two halves, composable in one invocation:
//   * model checking: build the net for --threads x --monitors under
//     --model, enumerate (packed markings, optional symmetry reduction,
//     optional parallel frontier), verify the Table-1 temporal properties
//     (mutual exclusion, conservation, 1-boundedness, FF-T5 dead marking,
//     T5 liveness) and print/emit the verdicts;
//   * cross-check: explore the named registry scenarios with per-run trace
//     capture and require every visited marking to be net-reachable
//     (docs/petri.md for the contract).
//
// Exit 0 when the verdicts match the model's expected profile and the
// cross-check (if requested) found no violation; 1 otherwise; 2 on usage
// errors.  --json-out emits a confail.petri.v1 document.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cli.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/petri/cross_check.hpp"
#include "confail/petri/properties.hpp"
#include "confail/petri/symmetry.hpp"
#include "confail/petri/thread_lock_net.hpp"
#include "confail/support/assert.hpp"

namespace confail::cli {

namespace {

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --threads N          net size: threads (default 2)\n"
      "  --monitors M         net size: monitors (default 1)\n"
      "  --model free|gated   notify model (default gated)\n"
      "  --symmetry none|threads|full\n"
      "                       canonical-form reduction (default threads)\n"
      "  --workers W          parallel frontier workers (default 1)\n"
      "  --max-states S       enumeration cap (default 1048576)\n"
      "  --cross-check S[,S]  also run the explorer-vs-net oracle on these\n"
      "                       registry scenarios (repeatable)\n"
      "  --max-runs R         exploration budget per scenario (default 2000)\n"
      "  --max-depth D        branch-depth bound for the exploration\n"
      "  --json-out FILE      confail.petri.v1 document\n"
      "  --metrics-out FILE   obs metrics snapshot (petri.* rows)\n",
      prog);
  return 2;
}

struct ScenarioCheck {
  std::string name;
  petri::CrossCheckReport report;
  std::uint64_t runsExplored = 0;
};

void splitCsv(const char* v, std::vector<std::string>& out) {
  std::string cur;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur += *p;
    }
  }
}

const char* yesNo(bool b) { return b ? "yes" : "no"; }

}  // namespace

int cmdPetri(const char* prog, int argc, char** argv) {
  unsigned threads = 2;
  unsigned monitors = 1;
  petri::NotifyModel model = petri::NotifyModel::Gated;
  petri::Symmetry symmetry = petri::Symmetry::Threads;
  std::uint64_t workers = 1;
  std::uint64_t maxStates = std::uint64_t{1} << 20;
  std::uint64_t maxRuns = 2000;
  std::uint64_t maxDepth = 0;  // 0 = unbounded
  std::vector<std::string> crossScenarios;
  std::string jsonOut;
  std::string metricsOut;

  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--threads") == 0) {
      if (!parseU64(prog, a, flagValue(i, argc, argv), threads)) {
        return usage(prog);
      }
    } else if (std::strcmp(a, "--monitors") == 0) {
      if (!parseU64(prog, a, flagValue(i, argc, argv), monitors)) {
        return usage(prog);
      }
    } else if (std::strcmp(a, "--model") == 0) {
      const char* v = flagValue(i, argc, argv);
      if (v == nullptr) return usage(prog);
      if (std::strcmp(v, "free") == 0) {
        model = petri::NotifyModel::Free;
      } else if (std::strcmp(v, "gated") == 0) {
        model = petri::NotifyModel::Gated;
      } else {
        std::fprintf(stderr, "%s: unknown model '%s'\n", prog, v);
        return usage(prog);
      }
    } else if (std::strcmp(a, "--symmetry") == 0) {
      const char* v = flagValue(i, argc, argv);
      if (v == nullptr) return usage(prog);
      if (std::strcmp(v, "none") == 0) {
        symmetry = petri::Symmetry::None;
      } else if (std::strcmp(v, "threads") == 0) {
        symmetry = petri::Symmetry::Threads;
      } else if (std::strcmp(v, "full") == 0) {
        symmetry = petri::Symmetry::Full;
      } else {
        std::fprintf(stderr, "%s: unknown symmetry '%s'\n", prog, v);
        return usage(prog);
      }
    } else if (std::strcmp(a, "--workers") == 0) {
      if (!parseU64(prog, a, flagValue(i, argc, argv), workers)) {
        return usage(prog);
      }
    } else if (std::strcmp(a, "--max-states") == 0) {
      if (!parseU64(prog, a, flagValue(i, argc, argv), maxStates)) {
        return usage(prog);
      }
    } else if (std::strcmp(a, "--max-runs") == 0) {
      if (!parseU64(prog, a, flagValue(i, argc, argv), maxRuns)) {
        return usage(prog);
      }
    } else if (std::strcmp(a, "--max-depth") == 0) {
      if (!parseU64(prog, a, flagValue(i, argc, argv), maxDepth)) {
        return usage(prog);
      }
    } else if (std::strcmp(a, "--cross-check") == 0) {
      const char* v = flagValue(i, argc, argv);
      if (v == nullptr) return usage(prog);
      splitCsv(v, crossScenarios);
    } else if (std::strcmp(a, "--json-out") == 0) {
      const char* v = flagValue(i, argc, argv);
      if (v == nullptr) return usage(prog);
      jsonOut = v;
    } else if (std::strcmp(a, "--metrics-out") == 0) {
      const char* v = flagValue(i, argc, argv);
      if (v == nullptr) return usage(prog);
      metricsOut = v;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, a);
      return usage(prog);
    }
  }
  if (threads < 1 || monitors < 1) {
    std::fprintf(stderr, "%s: need at least 1 thread and 1 monitor\n", prog);
    return usage(prog);
  }

  try {
    obs::Registry metrics;

    // --- model checking -----------------------------------------------------
    const petri::ThreadLockNet tl =
        petri::buildThreadLockNet(threads, monitors, model);
    petri::SymReachOptions ro;
    ro.maxStates = static_cast<std::size_t>(maxStates);
    ro.workers = static_cast<std::size_t>(workers);
    ro.symmetry = symmetry;
    ro.metrics = &metrics;
    const petri::ReachabilityResult reach = petri::reachableSymmetric(tl, ro);
    const petri::ModelVerdicts v = petri::verifyModel(tl, reach);
    const bool modelOk = v.consistentWith(tl) && reach.complete;

    std::printf("petri net: %u threads x %u monitors, %s notify — %zu places,"
                " %zu transitions\n",
                threads, monitors,
                model == petri::NotifyModel::Free ? "free" : "gated",
                tl.net.placeCount(), tl.net.transitionCount());
    std::printf(
        "reachability: %zu states", reach.stateCount());
    if (!reach.orbitSizes.empty()) {
      std::printf(" (%llu full, %.1fx reduction)",
                  static_cast<unsigned long long>(reach.fullStateCount()),
                  reach.stateCount() > 0
                      ? static_cast<double>(reach.fullStateCount()) /
                            static_cast<double>(reach.stateCount())
                      : 0.0);
    }
    std::printf(", %zu edges, %s\n", reach.edgeCount(),
                reach.complete ? "complete" : "CAPPED");
    std::printf("  symmetry %s, hits %llu, workers %llu, frontier peak %zu"
                " bytes\n",
                petri::symmetryName(symmetry),
                static_cast<unsigned long long>(reach.symmetryHits),
                static_cast<unsigned long long>(workers),
                reach.peakFrontierBytes);
    std::printf("dead markings: %zu", reach.deadStates.size());
    if (!reach.orbitSizes.empty()) {
      std::printf(" (%llu full)",
                  static_cast<unsigned long long>(reach.fullDeadStateCount()));
    }
    if (v.allWaitingDeadReachable) {
      std::printf("; all-waiting FF-T5 state REACHABLE, witness:");
      for (petri::TransitionId t : v.ffT5Witness) {
        std::printf(" %s", tl.net.transitionName(t).c_str());
      }
    }
    std::printf("\n");
    std::printf("properties: mutual-exclusion %s | conservation %s |"
                " 1-bounded %s | deadlock-free %s | T5-live %s%s\n",
                yesNo(v.mutualExclusion), yesNo(v.conservation),
                yesNo(v.oneBounded), yesNo(v.deadlockFree),
                v.t5LiveChecked ? yesNo(v.t5Live) : "unchecked",
                v.consistentWith(tl) ? "" : "  [UNEXPECTED PROFILE]");

    // --- cross-check --------------------------------------------------------
    std::vector<ScenarioCheck> checks;
    bool crossOk = true;
    for (const std::string& name : crossScenarios) {
      petri::CrossCheckOptions cc;
      cc.maxStates = static_cast<std::size_t>(maxStates);
      cc.workers = static_cast<std::size_t>(workers);
      cc.symmetry = symmetry == petri::Symmetry::Full
                        ? petri::Symmetry::Threads
                        : symmetry;  // scenario monitors are not symmetric
      petri::ModelCrossChecker checker(cc);

      sched::ExhaustiveExplorer::Options eo;
      eo.maxRuns = maxRuns;
      if (maxDepth > 0) eo.maxBranchDepth = static_cast<std::size_t>(maxDepth);
      inject::ExploreConfig cfg;
      cfg.scenario(name).captureRuns().explorer(eo);
      const auto outcome = cfg.explore([&](const inject::RunView& run) {
        if (run.trace != nullptr) {
          checker.addRun(*run.trace,
                         run.result.outcome != sched::Outcome::Completed);
        }
        return true;
      });

      ScenarioCheck sc;
      sc.name = name;
      sc.report = checker.report();
      sc.runsExplored = outcome.stats.runs;
      crossOk = crossOk && sc.report.ok;
      std::printf(
          "cross-check %s: %zu runs (%zu in scope, %zu out of scope, %zu"
          " empty), %zu markings + %zu gated checked, %zu failure states,"
          " %zu violations\n",
          name.c_str(), sc.report.runs, sc.report.inScopeRuns,
          sc.report.outOfScopeRuns, sc.report.emptyRuns,
          sc.report.markingsChecked, sc.report.gatedMarkingsChecked,
          sc.report.failureStatesChecked, sc.report.violations);
      if (!sc.report.ok) {
        std::printf("  first violation: %s\n",
                    sc.report.firstViolation.c_str());
      }
      checks.push_back(std::move(sc));
    }

    const bool ok = modelOk && crossOk;

    if (!jsonOut.empty()) {
      obs::JsonWriter w;
      w.beginObject();
      w.field("schema", "confail.petri.v1");
      w.key("net");
      w.beginObject();
      w.field("threads", threads);
      w.field("monitors", monitors);
      w.field("model", model == petri::NotifyModel::Free ? "free" : "gated");
      w.field("places", tl.net.placeCount());
      w.field("transitions", tl.net.transitionCount());
      w.endObject();
      w.key("reachability");
      w.beginObject();
      w.field("states", reach.stateCount());
      w.field("full_states", reach.fullStateCount());
      w.field("edges", reach.edgeCount());
      w.field("dead_states", reach.deadStates.size());
      w.field("full_dead_states", reach.fullDeadStateCount());
      w.field("complete", reach.complete);
      w.field("symmetry", petri::symmetryName(symmetry));
      w.field("symmetry_hits", reach.symmetryHits);
      w.field("workers", workers);
      w.field("frontier_peak_bytes", reach.peakFrontierBytes);
      w.endObject();
      w.key("properties");
      w.beginObject();
      w.field("mutual_exclusion", v.mutualExclusion);
      w.field("conservation", v.conservation);
      w.field("one_bounded", v.oneBounded);
      w.field("deadlock_free", v.deadlockFree);
      w.field("all_waiting_dead_reachable", v.allWaitingDeadReachable);
      w.field("t5_live_checked", v.t5LiveChecked);
      w.field("t5_live", v.t5Live);
      w.field("consistent", v.consistentWith(tl));
      w.key("ff_t5_witness");
      w.beginArray();
      for (petri::TransitionId t : v.ffT5Witness) {
        w.value(tl.net.transitionName(t));
      }
      w.endArray();
      w.endObject();
      w.key("cross_check");
      w.beginObject();
      w.field("ok", crossOk);
      w.key("scenarios");
      w.beginArray();
      for (const ScenarioCheck& sc : checks) {
        w.beginObject();
        w.field("name", sc.name);
        w.field("ok", sc.report.ok);
        w.field("runs", sc.report.runs);
        w.field("in_scope_runs", sc.report.inScopeRuns);
        w.field("out_of_scope_runs", sc.report.outOfScopeRuns);
        w.field("empty_runs", sc.report.emptyRuns);
        w.field("markings_checked", sc.report.markingsChecked);
        w.field("gated_markings_checked", sc.report.gatedMarkingsChecked);
        w.field("failure_states_checked", sc.report.failureStatesChecked);
        w.field("incomplete_skips", sc.report.incompleteSkips);
        w.field("nets_built", sc.report.netsBuilt);
        w.field("violations", sc.report.violations);
        if (!sc.report.firstViolation.empty()) {
          w.field("first_violation", sc.report.firstViolation);
        }
        w.endObject();
      }
      w.endArray();
      w.endObject();
      w.endObject();
      if (!w.writeFile(jsonOut)) {
        std::fprintf(stderr, "%s: cannot write %s\n", prog, jsonOut.c_str());
        return 3;
      }
    }
    if (!metricsOut.empty() && !metrics.snapshot().writeFile(metricsOut)) {
      std::fprintf(stderr, "%s: cannot write %s\n", prog, metricsOut.c_str());
      return 3;
    }

    std::printf(ok ? "PETRI OK\n" : "PETRI VIOLATIONS\n");
    return ok ? 0 : 1;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 3;
  }
}

}  // namespace confail::cli
