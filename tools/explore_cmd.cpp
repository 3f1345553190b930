// `confail explore`: front end for the parallel schedule explorer.  The
// heavy lifting — program wiring, injection, capture, summary assembly —
// lives in inject::ExploreConfig; this file is flag parsing and output.
//
// Exit status follows cli.hpp: 0 when every run completed cleanly, 1 when
// the exploration surfaced failures (deadlocks, step-limited runs,
// exceptions), 2 on usage errors, 3 on internal errors.
#include <cstdio>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "confail/components/scenario_registry.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/summary.hpp"
#include "confail/obs/trace_export.hpp"

namespace confail::cli {

namespace scenarios = confail::components::scenarios;
namespace sched = confail::sched;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --scenario <name> [--workers N] "
               "[--prune] [--reduction none|sleep|dpor]\n"
               "               [--sleep-sets] [--max-runs N] [--max-depth N] "
               "[--max-steps N] [--json]\n"
               "               [--incremental | --no-incremental]\n"
               "               [--metrics-out FILE] "
               "[--chrome-trace FILE] [--jsonl-out FILE] [--progress]\n\n"
               "--sleep-sets is shorthand for --reduction sleep.\n"
               "--jsonl-out captures one run as JSONL events ('-' for "
               "stdout) — pipe it\nstraight into the streaming analyzer:\n"
               "  confail explore --scenario S --jsonl-out - | "
               "confail ingest --from jsonl -\n"
               "--incremental (default) resumes each branch from a "
               "copy-on-write snapshot\n"
               "of its parent's state; --no-incremental replays every "
               "prefix from the root\n"
               "(kept for differential testing).\n\n"
               "scenarios:\n",
               prog);
  for (const scenarios::NamedScenario& s : scenarios::registry()) {
    std::fprintf(stderr, "  %-12s %s\n", s.name.c_str(), s.blurb.c_str());
  }
  return 2;
}

}  // namespace

int cmdExplore(const char* prog, int argc, char** argv) {
  const scenarios::NamedScenario* scenario = nullptr;
  sched::ExhaustiveExplorer::Options eo =
      inject::ExploreConfig().explorerOptions();
  bool json = false;
  bool progress = false;
  std::string metricsOut;
  std::string chromeTrace;
  std::string jsonlOut;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    const FlagParse budget = parseBudgetFlag(prog, i, argc, argv, eo);
    if (budget == FlagParse::Bad) return usage(prog);
    if (budget == FlagParse::Ok) continue;
    if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      scenario = scenarios::find(v);
      if (scenario == nullptr) {
        std::fprintf(stderr, "%s: unknown scenario '%s'\n", prog, v);
        return usage(prog);
      }
    } else if (arg == "--prune") {
      eo.fingerprintPruning = true;
    } else if (arg == "--incremental") {
      eo.incremental = true;
    } else if (arg == "--no-incremental") {
      eo.incremental = false;
    } else if (arg == "--sleep-sets") {
      eo.reduction = sched::ExhaustiveExplorer::Reduction::Sleep;
    } else if (arg == "--reduction" || arg.rfind("--reduction=", 0) == 0) {
      std::string v;
      if (arg == "--reduction") {
        const char* n = next();
        if (n == nullptr) return usage(prog);
        v = n;
      } else {
        v = arg.substr(std::strlen("--reduction="));
      }
      if (!inject::parseReduction(v, eo.reduction)) {
        std::fprintf(stderr, "%s: unknown reduction '%s'\n", prog, v.c_str());
        return usage(prog);
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      metricsOut = v;
    } else if (arg == "--chrome-trace") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      chromeTrace = v;
    } else if (arg == "--jsonl-out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      jsonlOut = v;
    } else if (arg == "--progress") {
      progress = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usage(prog);
    }
  }
  if (scenario == nullptr) return usage(prog);

  const bool instrument =
      !metricsOut.empty() || !chromeTrace.empty() || !jsonlOut.empty() ||
      progress;
  obs::Registry metrics;
  inject::ExploreConfig cfg;
  cfg.scenario(*scenario).explorer(eo);
  if (instrument) cfg.metrics(&metrics);
  if (progress) cfg.stderrProgress();

  inject::ExploreConfig::Outcome outcome;
  try {
    outcome = cfg.explore();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 3;
  }
  const sched::ExhaustiveExplorer::Stats& stats = outcome.stats;
  const int verdict =
      stats.deadlocks + stats.stepLimited + stats.exceptions > 0 ? 1 : 0;

  // One captured run feeds the Chrome/JSONL exports and the CoFG coverage
  // gauges.
  events::Trace captured;
  if (!chromeTrace.empty() || !jsonlOut.empty() || !metricsOut.empty()) {
    try {
      cfg.capture(captured, metrics);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: capture run failed: %s\n", prog, e.what());
      return 3;
    }
  }
  if (!chromeTrace.empty() &&
      !obs::writeChromeTraceFile(captured, chromeTrace)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, chromeTrace.c_str());
    return 3;
  }
  if (!jsonlOut.empty()) {
    if (jsonlOut == "-") {
      std::fputs(obs::toJsonl(captured).c_str(), stdout);
      // Events went to stdout; the summary must not interleave with them.
      return verdict;
    }
    if (!obs::writeJsonlFile(captured, jsonlOut)) {
      std::fprintf(stderr, "%s: cannot write %s\n", prog, jsonlOut.c_str());
      return 3;
    }
  }
  if (!metricsOut.empty() && !metrics.snapshot().writeFile(metricsOut)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, metricsOut.c_str());
    return 3;
  }

  obs::ExploreSummary summary = outcome.summary();
  if (instrument) summary.addHistogramPercentiles(metrics.snapshot());
  if (json) {
    std::printf("%s\n", summary.toJson().c_str());
  } else {
    std::fputs(summary.human().c_str(), stdout);
    std::printf("EXPLORE DONE\n");
  }
  return verdict;
}

}  // namespace confail::cli
