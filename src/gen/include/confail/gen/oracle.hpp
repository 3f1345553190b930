// Differential oracles: the invariants the codebase promises, checked on
// machine-generated programs.
//
// Each oracle re-states a guarantee that is already unit-tested on the
// hand-written registry scenarios and asserts it on an arbitrary generated
// program:
//
//   incremental-vs-replay    incremental (checkpoint/restore) exploration
//                            produces the same runs, failure sets and
//                            canonical witnesses as prefix replay, per
//                            reduction (sched_incremental_test's contract);
//   reduction-equivalence    when full enumeration exhausts the unbounded
//                            tree within budget, Sleep and Dpor find the
//                            same distinct-deadlock set, and Dpor's
//                            canonical witness equals the minimum over the
//                            canonicalized failures of the full enumeration
//                            (sched_dpor_test's contract) — skipped, not
//                            failed, when the tree is too big to exhaust;
//   worker-determinism       bounded exploration Stats are identical at
//                            {1,2,8} workers for every reduction
//                            (sched_parallel_test's contract);
//   clean-negative-control   a cleanOnly-generated program (guarded
//                            accesses, ascending lock order, no
//                            wait/notify) completes on every schedule and
//                            the detector battery stays silent
//                            (inject_test's negative-control contract);
//   injection-detection      Table-1 classes whose deviation point the
//                            program structurally guarantees are caught by
//                            the detector battery when injected
//                            (campaign's contract): FF-T4 on programs
//                            where >= 2 threads lock a common monitor and
//                            nobody waits, EF-T3 on programs with a wait,
//                            EF-T5 on programs with a wait and no notify;
//   streaming-equivalence    replaying a recorded run's JSONL export
//                            through the streaming ingest pipeline yields a
//                            findings document byte-identical to the
//                            offline DetectorSuite's on the same trace
//                            (both run the one battery, so this pins the
//                            JSONL export, the decoder and the ring);
//   model-cross-check        every marking a generated program's runs visit
//                            is a reachable marking of the thread/lock
//                            Petri net of the same shape, and all-waiting
//                            failure states are dead in the gated net
//                            (petri/cross_check.hpp's explorer ⊆ net
//                            contract) — nested-monitor programs are out of
//                            the Figure-1 protocol's scope and skip.
//
// Sabotage deliberately breaks a guarantee to prove the harness can see
// failures (the ISSUE's broken-oracle acceptance test): DropDeadlocks makes
// the *reference* (replay) side of incremental-vs-replay misreport
// deadlocked runs as completed, so any in-bounds deadlocking seed trips the
// oracle and shrinks to the minimal deadlocking program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/gen/ir.hpp"

namespace confail::gen {

enum class Sabotage : std::uint8_t {
  None,
  /// Reference (replay) side of incremental-vs-replay counts deadlocks as
  /// completions and drops their signatures/witnesses.
  DropDeadlocks,
};

struct OracleConfig {
  std::uint64_t maxRuns = 2000;      ///< bounded-depth exploration budget
  std::uint64_t fullMaxRuns = 3000;  ///< unbounded-enumeration budget
  std::uint64_t maxSteps = 1500;
  std::size_t maxBranchDepth = 4;
  std::vector<std::size_t> workerCounts = {1, 2, 8};
  /// Reduction-equivalence canonicalizes witnesses only when the full
  /// enumeration has at most this many failing runs (each costs a replay).
  std::size_t canonicalizeCap = 200;

  bool checkIncremental = true;
  bool checkReductions = true;
  bool checkWorkers = true;
  bool checkInjection = true;
  bool checkStreaming = true;
  bool checkModel = true;
  /// Runs per program the streaming oracle differentials (each costs an
  /// offline battery pass plus a full encode/decode/streaming pass).
  std::size_t streamingRunCap = 5;
  /// Off by default: only meaningful for cleanOnly-generated programs
  /// (the fuzz harness runs it on the clean tier).
  bool checkClean = false;

  Sabotage sabotage = Sabotage::None;
};

struct OracleOutcome {
  std::string oracle;
  bool ok = true;
  bool skipped = false;   ///< precondition unmet (e.g. tree not exhausted)
  std::string detail;     ///< failure diff / skip reason
};

struct OracleReport {
  std::vector<OracleOutcome> outcomes;
  std::uint64_t exploreRuns = 0;  ///< explorer runs spent on this program

  bool ok() const {
    for (const OracleOutcome& o : outcomes) {
      if (!o.skipped && !o.ok) return false;
    }
    return true;
  }
  const OracleOutcome* firstFailure() const {
    for (const OracleOutcome& o : outcomes) {
      if (!o.skipped && !o.ok) return &o;
    }
    return nullptr;
  }
};

/// The oracle names, in run order (CLI --oracle filter values).
const std::vector<std::string>& oracleNames();

/// Restrict a config to a single oracle by name (unknown name: all off).
OracleConfig onlyOracle(const OracleConfig& oc, const std::string& name);

/// Run every enabled oracle against `p` (assumed valid).
OracleReport runOracles(const Program& p, const OracleConfig& oc);

}  // namespace confail::gen
