// `confail fuzz`: seeded scenario fuzzing with differential oracles.
//
// Generates monitor programs for a seed range, runs the differential
// oracles (incremental-vs-replay, reduction-equivalence,
// worker-determinism, clean-negative-control, injection-detection) on each,
// greedily shrinks any failing seed to a minimal IR reproducer, and emits
// the confail.fuzz.v1 report.
//
// Exit status: 0 when every oracle passed on every seed, 1 when a failure
// was found (the report carries the shrunk reproducer), 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "cli.hpp"
#include "confail/gen/fuzz.hpp"

namespace confail::cli {

namespace {

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds A..B | --seeds N] [--json] [--out FILE]\n"
      "            [--max-threads N] [--max-monitors N] [--max-vars N]\n"
      "            [--max-ops N] [--max-loop-iters N] [--no-loops]\n"
      "            [--no-wait-notify]\n"
      "            [--max-runs N] [--full-max-runs N] [--max-steps N]\n"
      "            [--max-depth N] [--oracle NAME] [--no-shrink]\n"
      "            [--max-failures N] [--sabotage none|drop-deadlocks]\n"
      "            [--progress]\n\n"
      "--seeds N is shorthand for --seeds 0..N.  --oracle restricts the\n"
      "harness to one oracle (repeat the flag for several):\n",
      prog);
  for (const std::string& n : gen::oracleNames()) {
    std::fprintf(stderr, "  %s\n", n.c_str());
  }
  std::fprintf(stderr,
               "\n--sabotage drop-deadlocks intentionally breaks the replay "
               "reference side\nof incremental-vs-replay (deadlocks "
               "misreported as completions) to prove\nthe harness catches "
               "a broken oracle and shrinks its reproducer.\n");
  return 2;
}

bool parseSeeds(std::string_view s, std::uint64_t& begin,
                std::uint64_t& end) {
  const std::size_t dots = s.find("..");
  if (dots == std::string_view::npos) {
    begin = 0;
    if (!parseDecimal(s, end)) return false;
  } else if (!parseDecimal(s.substr(0, dots), begin) ||
             !parseDecimal(s.substr(dots + 2), end)) {
    return false;
  }
  return end > begin;
}

}  // namespace

int cmdFuzz(const char* prog, int argc, char** argv) {
  gen::FuzzOptions opts;
  bool json = false;
  std::string outFile;
  bool oracleFiltered = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    auto nextU64 = [&](auto& out) {
      return parseU64(prog, arg.c_str(), flagValue(i, argc, argv), out);
    };
    if (arg == "--seeds") {
      const char* v = next();
      if (v == nullptr || !parseSeeds(v, opts.seedBegin, opts.seedEnd)) {
        std::fprintf(stderr, "%s: bad --seeds range\n", prog);
        return usage(prog);
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      outFile = v;
    } else if (arg == "--max-threads") {
      if (!nextU64(opts.cfg.maxThreads)) return usage(prog);
    } else if (arg == "--max-monitors") {
      if (!nextU64(opts.cfg.maxMonitors)) return usage(prog);
    } else if (arg == "--max-vars") {
      if (!nextU64(opts.cfg.maxVars)) return usage(prog);
    } else if (arg == "--max-ops") {
      if (!nextU64(opts.cfg.maxOpsPerThread)) return usage(prog);
    } else if (arg == "--max-loop-iters") {
      if (!nextU64(opts.cfg.maxLoopIters)) return usage(prog);
    } else if (arg == "--no-loops") {
      opts.cfg.allowLoops = false;
    } else if (arg == "--no-wait-notify") {
      opts.cfg.allowWaitNotify = false;
    } else if (arg == "--max-runs") {
      if (!nextU64(opts.oracle.maxRuns)) return usage(prog);
    } else if (arg == "--full-max-runs") {
      if (!nextU64(opts.oracle.fullMaxRuns)) return usage(prog);
    } else if (arg == "--max-steps") {
      if (!nextU64(opts.oracle.maxSteps)) return usage(prog);
    } else if (arg == "--max-depth") {
      if (!nextU64(opts.oracle.maxBranchDepth)) return usage(prog);
    } else if (arg == "--oracle") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      bool known = false;
      for (const std::string& name : gen::oracleNames()) known |= name == v;
      if (!known) {
        std::fprintf(stderr, "%s: unknown oracle '%s'\n", prog, v);
        return usage(prog);
      }
      if (!oracleFiltered) {
        // First filter: start from all-off, then switch on each named one.
        opts.oracle = gen::onlyOracle(opts.oracle, v);
        oracleFiltered = true;
      } else {
        const gen::OracleConfig one = gen::onlyOracle(opts.oracle, v);
        opts.oracle.checkIncremental |= one.checkIncremental;
        opts.oracle.checkReductions |= one.checkReductions;
        opts.oracle.checkWorkers |= one.checkWorkers;
        opts.oracle.checkClean |= one.checkClean;
        opts.oracle.checkInjection |= one.checkInjection;
        opts.oracle.checkStreaming |= one.checkStreaming;
        opts.oracle.checkModel |= one.checkModel;
      }
    } else if (arg == "--no-shrink") {
      opts.shrinkFailures = false;
    } else if (arg == "--max-failures") {
      if (!nextU64(opts.maxFailures)) return usage(prog);
    } else if (arg == "--sabotage") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      if (std::strcmp(v, "none") == 0) {
        opts.oracle.sabotage = gen::Sabotage::None;
      } else if (std::strcmp(v, "drop-deadlocks") == 0) {
        opts.oracle.sabotage = gen::Sabotage::DropDeadlocks;
      } else {
        std::fprintf(stderr, "%s: unknown sabotage '%s'\n", prog, v);
        return usage(prog);
      }
    } else if (arg == "--progress") {
      opts.stderrProgress = true;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, arg.c_str());
      return usage(prog);
    }
  }
  if (!oracleFiltered) opts.oracle.checkClean = true;
  if (opts.cfg.maxThreads < opts.cfg.minThreads ||
      opts.cfg.maxMonitors < 1 || opts.cfg.maxVars < 1 ||
      opts.cfg.maxOpsPerThread < 3) {
    std::fprintf(stderr, "%s: degenerate generator config\n", prog);
    return 2;
  }

  const gen::FuzzReport report = gen::runFuzz(opts);
  const std::string doc = json ? report.toJson() + "\n" : report.human();
  std::fputs(doc.c_str(), stdout);
  if (!outFile.empty()) {
    std::FILE* f = std::fopen(outFile.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", prog, outFile.c_str());
      return 3;
    }
    const std::string jsonDoc = report.toJson();
    std::fputs(jsonDoc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return report.ok() ? 0 : 1;
}

}  // namespace confail::cli
