#include "confail/gen/fuzz.hpp"

#include <chrono>
#include <cstdio>

#include "confail/obs/json.hpp"

namespace confail::gen {

namespace {

const char* sabotageName(Sabotage s) {
  switch (s) {
    case Sabotage::None:
      return "none";
    case Sabotage::DropDeadlocks:
      return "drop-deadlocks";
  }
  return "?";
}

/// The cleanOnly sibling of the default-tier config: same knobs, but the
/// draw is restricted to deadlock/race-free-by-construction programs.
GenConfig cleanConfig(const GenConfig& cfg) {
  GenConfig c = cfg;
  c.cleanOnly = true;
  c.allowWaitNotify = false;
  return c;
}

}  // namespace

FuzzReport runFuzz(const FuzzOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  FuzzReport report;
  report.seedBegin = opts.seedBegin;
  report.seedEnd = opts.seedEnd;
  report.sabotage = opts.oracle.sabotage;

  GenConfig defaultCfg = opts.cfg;
  defaultCfg.cleanOnly = false;
  const GenConfig cleanCfg = cleanConfig(opts.cfg);

  // The clean negative control runs on the clean tier; everything else on
  // the default tier.
  OracleConfig defaultOracle = opts.oracle;
  defaultOracle.checkClean = false;
  OracleConfig cleanOracle = opts.oracle;
  cleanOracle.checkIncremental = false;
  cleanOracle.checkReductions = false;
  cleanOracle.checkWorkers = false;
  cleanOracle.checkInjection = false;
  cleanOracle.checkStreaming = false;
  cleanOracle.checkModel = false;

  const bool anyDefault =
      defaultOracle.checkIncremental || defaultOracle.checkReductions ||
      defaultOracle.checkWorkers || defaultOracle.checkInjection ||
      defaultOracle.checkStreaming || defaultOracle.checkModel;

  for (std::uint64_t seed = opts.seedBegin;
       seed < opts.seedEnd && report.failures.size() < opts.maxFailures;
       ++seed) {
    ++report.seedsRun;
    if (opts.stderrProgress && (seed - opts.seedBegin) % 50 == 0) {
      std::fprintf(stderr, "fuzz: seed %llu (%llu runs so far)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(report.exploreRuns));
    }

    struct Tier {
      Program program;
      const OracleConfig* oracle;
      bool clean;
    };
    std::vector<Tier> tiers;
    if (anyDefault) {
      tiers.push_back(Tier{generate(seed, defaultCfg), &defaultOracle, false});
    }
    if (opts.oracle.checkClean) {
      tiers.push_back(Tier{generate(seed, cleanCfg), &cleanOracle, true});
    }

    for (const Tier& tier : tiers) {
      ++report.programsGenerated;
      std::string why;
      if (!tier.program.validate(&why)) {
        // A generator bug, not a substrate bug: report it unshrunk.
        FuzzFailure f;
        f.seed = seed;
        f.oracle = "generator-validity";
        f.detail = why;
        f.cleanTier = tier.clean;
        f.originalOps = tier.program.opCount();
        f.shrunk = tier.program;
        report.failures.push_back(std::move(f));
        continue;
      }
      const OracleReport r = runOracles(tier.program, *tier.oracle);
      report.exploreRuns += r.exploreRuns;
      for (const OracleOutcome& o : r.outcomes) {
        std::uint64_t& skips = report.oracleSkips[o.oracle];
        if (o.skipped) {
          ++skips;
        } else {
          ++report.oracleChecks;
        }
      }
      const OracleOutcome* fail = r.firstFailure();
      if (fail == nullptr) continue;

      FuzzFailure f;
      f.seed = seed;
      f.oracle = fail->oracle;
      f.detail = fail->detail;
      f.cleanTier = tier.clean;
      f.originalOps = tier.program.opCount();
      f.shrunk = tier.program;
      if (opts.shrinkFailures) {
        const OracleConfig single = onlyOracle(*tier.oracle, fail->oracle);
        std::uint64_t shrinkRuns = 0;
        const ShrinkResult sr = shrink(
            tier.program,
            [&](const Program& cand) {
              const OracleReport rr = runOracles(cand, single);
              shrinkRuns += rr.exploreRuns;
              const OracleOutcome* ff = rr.firstFailure();
              return ff != nullptr && ff->oracle == fail->oracle;
            },
            opts.shrinkOpts);
        report.exploreRuns += shrinkRuns;
        f.shrunk = sr.program;
        f.shrinkAttempts = sr.attempts;
      }
      report.failures.push_back(std::move(f));
      if (report.failures.size() >= opts.maxFailures) break;
    }
  }

  report.elapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

std::string FuzzReport::toJson() const {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.fuzz.v1");
  w.field("seed_begin", seedBegin);
  w.field("seed_end", seedEnd);
  w.field("seeds_run", seedsRun);
  w.field("sabotage", sabotageName(sabotage));
  w.field("programs_generated", programsGenerated);
  w.field("oracle_checks", oracleChecks);
  w.field("oracle_skips", oracleSkipTotal());
  w.key("oracle_skips_by_oracle");
  w.beginObject();
  for (const auto& [oracle, skips] : oracleSkips) w.field(oracle, skips);
  w.endObject();
  w.field("explore_runs", exploreRuns);
  w.field("elapsed_ms", elapsedSec * 1000.0);
  w.field("programs_per_sec", programsPerSec());
  w.field("oracle_runs_per_sec", oracleRunsPerSec());
  w.key("failures");
  w.beginArray();
  for (const FuzzFailure& f : failures) {
    w.beginObject();
    w.field("seed", f.seed);
    w.field("oracle", f.oracle);
    w.field("detail", f.detail);
    w.field("tier", f.cleanTier ? "clean" : "default");
    w.field("original_ops", f.originalOps);
    w.field("shrunk_ops", f.shrunk.opCount());
    w.field("shrink_attempts", f.shrinkAttempts);
    w.field("shrunk_program", f.shrunk.render());
    w.endObject();
  }
  w.endArray();
  w.field("ok", ok());
  w.endObject();
  return w.str();
}

std::string FuzzReport::human() const {
  std::string out;
  out += "fuzz: seeds [" + std::to_string(seedBegin) + ", " +
         std::to_string(seedEnd) + ")";
  if (sabotage != Sabotage::None) {
    out += std::string(" sabotage=") + sabotageName(sabotage);
  }
  out += "\n";
  out += "  seeds run          " + std::to_string(seedsRun) + "\n";
  out += "  programs generated " + std::to_string(programsGenerated) + "\n";
  out += "  oracle checks      " + std::to_string(oracleChecks) +
         " (skipped " + std::to_string(oracleSkipTotal()) + ")\n";
  out += "  explorer runs      " + std::to_string(exploreRuns) + "\n";
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "  throughput         %.1f programs/sec, %.1f oracle "
                "runs/sec\n",
                programsPerSec(), oracleRunsPerSec());
  out += buf;
  for (const FuzzFailure& f : failures) {
    out += "failure: seed " + std::to_string(f.seed) + " oracle " + f.oracle +
           " (" + (f.cleanTier ? "clean" : "default") + " tier)\n";
    out += "  " + f.detail + "\n";
    out += "  shrunk to " + std::to_string(f.shrunk.opCount()) + " ops (from " +
           std::to_string(f.originalOps) + ", " +
           std::to_string(f.shrinkAttempts) + " attempts)\n";
    out += f.shrunk.render();
  }
  out += ok() ? "FUZZ OK\n" : "FUZZ FAIL\n";
  return out;
}

}  // namespace confail::gen
