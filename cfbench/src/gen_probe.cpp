// The gen/petri probe: program generation and each of the seven
// differential oracles alone, over a few generated programs.  These layers
// have no workload of their own, so the probe runs in every traced run.
#include <algorithm>

#include "bench.hpp"
#include "confail/gen/generator.hpp"
#include "confail/gen/oracle.hpp"

namespace cfbench {

namespace gen = confail::gen;

namespace {

/// Probe programs come from a range of generator seeds far from the ones
/// `confail fuzz` starts at.
constexpr std::uint64_t kProbeBase = 1ull << 62;
constexpr std::uint64_t kProbeSeeds = 8;

/// Short names of gen::oracleNames(), in the same order.
const char* const kOracleShort[] = {"incremental", "reductions", "workers",
                                    "clean",       "injection",  "streaming",
                                    "model"};

}  // namespace

void genProbe(const Ctx& ctx, Tracer& tr, Metrics& out) {
  gen::OracleConfig oc;
  // No run may use more explorer threads than the host has.
  oc.workerCounts = {1};
  for (std::size_t w : {std::size_t{2}, ctx.workers}) {
    if (w > oc.workerCounts.back()) oc.workerCounts.push_back(w);
  }
  oc.checkClean = true;  // the clean tier's negative control
  const gen::GenConfig cfg;
  gen::GenConfig clean = cfg;  // the clean tier, as runFuzz derives it
  clean.cleanOnly = true;
  clean.allowWaitNotify = false;
  const std::uint64_t base = kProbeBase + ctx.seed * kProbeSeeds;

  // Generation alone, repeated so the per-program time is well above the
  // clock's resolution.
  tr.newRun("probe.gen.generate");
  std::vector<gen::Program> programs, cleanPrograms;
  {
    Tracer::Scope span(&tr, "gen.generate");
    constexpr int kRepeat = 20;
    const auto t0 = Clock::now();
    for (int r = 0; r < kRepeat; ++r) {
      programs.clear();
      cleanPrograms.clear();
      for (std::uint64_t s = base; s < base + kProbeSeeds; ++s) {
        programs.push_back(gen::generate(s, cfg));
        cleanPrograms.push_back(gen::generate(s, clean));
      }
    }
    out.set("gen.generate_us",
            secondsSince(t0) * 1e6 / (kRepeat * 2.0 * kProbeSeeds), "us",
            kRepeat * 2 * kProbeSeeds);
  }

  // Each oracle alone over the probe programs (the clean negative control
  // on the clean tier, as runFuzz does).
  std::uint64_t runs = 0, checks = 0, skips = 0;
  double oracleSec = 0.0;
  const std::vector<std::string>& names = gen::oracleNames();
  for (std::size_t k = 0; k < names.size(); ++k) {
    tr.newRun("probe.gen.oracle." + names[k]);
    const gen::OracleConfig only = gen::onlyOracle(oc, names[k]);
    const bool cleanTier = names[k] == "clean-negative-control";
    const std::vector<gen::Program>& progs = cleanTier ? cleanPrograms : programs;
    double sec = 0.0;
    std::uint64_t skipped = 0;
    for (const gen::Program& p : progs) {
      Tracer::Scope span(&tr, "gen.oracle." + std::string(kOracleShort[k]));
      const auto t0 = Clock::now();
      const gen::OracleReport r = gen::runOracles(p, only);
      sec += secondsSince(t0);
      runs += r.exploreRuns;
      for (const gen::OracleOutcome& o : r.outcomes) {
        if (o.skipped) {
          ++skipped;
        } else if (!o.ok) {
          throw std::runtime_error("probe oracle " + o.oracle + " failed: " +
                                   o.detail);
        } else {
          ++checks;
        }
      }
    }
    skips += skipped;
    oracleSec += sec;
    out.set("gen.oracle." + std::string(kOracleShort[k]) + "_s", sec, "s",
            progs.size());
    out.set("gen.skips." + std::string(kOracleShort[k]),
            static_cast<double>(skipped), "count");
  }
  out.set("gen.explore_runs", static_cast<double>(runs), "count");
  out.set("gen.oracle_runs_per_sec", static_cast<double>(runs) / oracleSec,
          "1/s");
  out.set("gen.decided_ratio",
          checks + skips ? static_cast<double>(checks) /
                               static_cast<double>(checks + skips)
                         : 0.0,
          "ratio", checks + skips);
}

}  // namespace cfbench
