// The fuzz campaign: generate → oracle → shrink, over a seed range.
//
// For each seed the harness draws the default-tier program and runs the
// enabled differential oracles on it; when the clean oracle is enabled it
// additionally draws the same seed's cleanOnly-tier program and runs the
// detector negative control on that.  A failing oracle turns into a
// FuzzFailure carrying a greedily shrunk minimal reproducer (the shrink
// predicate is "that same oracle still fails"), and the campaign stops
// after maxFailures failing seeds.
//
// The report follows the confail.injection.v1 conventions: a versioned
// schema (confail.fuzz.v1), machine-readable JSON, a human rendering ending
// in a FUZZ OK|FAIL verdict line, and the two throughput figures
// (generated-programs/sec, oracle explorer-runs/sec) the committed
// BENCH_fuzz.json tracks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "confail/gen/generator.hpp"
#include "confail/gen/ir.hpp"
#include "confail/gen/oracle.hpp"
#include "confail/gen/shrink.hpp"

namespace confail::gen {

struct FuzzOptions {
  std::uint64_t seedBegin = 0;
  std::uint64_t seedEnd = 100;  ///< exclusive
  GenConfig cfg;                ///< default tier (cleanOnly forced off)
  OracleConfig oracle;          ///< which oracles run, and their budgets
  bool shrinkFailures = true;
  ShrinkOptions shrinkOpts;
  std::size_t maxFailures = 5;  ///< stop the campaign after this many
  bool stderrProgress = false;  ///< heartbeat line every 50 seeds
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string oracle;
  std::string detail;        ///< the original (unshrunk) failure detail
  bool cleanTier = false;    ///< failed on the cleanOnly-tier program
  std::size_t originalOps = 0;
  Program shrunk;            ///< minimal reproducer (== original if -shrink)
  std::size_t shrinkAttempts = 0;
};

struct FuzzReport {
  std::uint64_t seedBegin = 0;
  std::uint64_t seedEnd = 0;
  std::uint64_t seedsRun = 0;
  std::uint64_t programsGenerated = 0;
  std::uint64_t oracleChecks = 0;  ///< oracle outcomes evaluated (not skipped)
  /// Skipped oracle outcomes by oracle name; every oracle that ran has an
  /// entry, zero when it was never skipped.
  std::map<std::string, std::uint64_t> oracleSkips;
  std::uint64_t exploreRuns = 0;   ///< explorer runs spent (oracles + shrink)
  double elapsedSec = 0.0;
  Sabotage sabotage = Sabotage::None;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::uint64_t oracleSkipTotal() const {
    std::uint64_t n = 0;
    for (const auto& [oracle, skips] : oracleSkips) n += skips;
    return n;
  }
  double programsPerSec() const {
    return elapsedSec > 0.0
               ? static_cast<double>(programsGenerated) / elapsedSec
               : 0.0;
  }
  double oracleRunsPerSec() const {
    return elapsedSec > 0.0 ? static_cast<double>(exploreRuns) / elapsedSec
                            : 0.0;
  }

  /// Machine-readable document (schema confail.fuzz.v1).
  std::string toJson() const;
  /// Human rendering; last line is "FUZZ OK" or "FUZZ FAIL".
  std::string human() const;
};

FuzzReport runFuzz(const FuzzOptions& opts);

}  // namespace confail::gen
