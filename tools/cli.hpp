// Shared command layer of the unified `confail` CLI.
//
// Each verb of the multi-tool is an ordinary main-shaped function taking
// the display name to use in usage/error messages (`prog`) and the
// arguments AFTER the verb (argv[0] is the first flag, not a program
// name).  The `confail` binary dispatches verbs onto these.  The legacy
// confail_explore / confail_trace / confail_obs_check shim binaries are
// gone; scripts invoke `confail <verb>` directly.
//
// Conventions every verb follows:
//
//   Output flags — one spelling per artifact, regardless of verb:
//     --json-out FILE     confail.findings.v1 findings document
//     --sarif-out FILE    SARIF 2.1.0 findings document
//     --metrics-out FILE  obs metrics snapshot (counters/gauges/histograms)
//   A verb that cannot produce an artifact simply does not take its flag.
//
//   Numeric flags are strict (parseU64): a value must be a whole token of
//   decimal digits that fits its field, so `--max-runs 12abc`, `-1` or a
//   32-bit field given 2^32 is a usage error, never a silent truncation.
//
//   Exit status, uniform across verbs:
//     0  clean — the tool ran and found nothing wrong
//     1  findings / failures present (detector findings, failing runs, a
//        failed matrix or job — the tool worked and has news)
//     2  usage error (unknown flag, missing argument, unknown scenario)
//     3  internal error (I/O failure, exception) — the result is unusable
//   `trace selftest` and `fuzz` differential verdicts return 0 for "the
//   machinery checked out" even though seeded faults produce findings on
//   the way; their job is the check, not the findings.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

namespace confail::cli {

/// confail explore — parallel schedule exploration of a registry scenario.
int cmdExplore(const char* prog, int argc, char** argv);

/// confail trace — offline analysis of recorded JSONL traces.
int cmdTrace(const char* prog, int argc, char** argv);

/// confail ingest — online analysis of live event streams.
int cmdIngest(const char* prog, int argc, char** argv);

/// confail obs-check — validate emitted observability files.
int cmdObsCheck(const char* prog, int argc, char** argv);

/// confail inject — deviation injection: single plan or full campaign.
/// Both modes build an inject::JobSpec.  With --campaign, the single-plan
/// flags (--scenario, --class, --monitor, --victim, --after, --count,
/// --json-out/--findings-out, --sarif-out, --findings-cap) are usage
/// errors: the campaign would ignore them.
int cmdInject(const char* prog, int argc, char** argv);

/// confail fuzz — seeded program generation + differential oracles.
int cmdFuzz(const char* prog, int argc, char** argv);

/// confail serve — campaign daemon over a spool directory.
int cmdServe(const char* prog, int argc, char** argv);

/// confail worker — run one campaign shard (the serve daemon's subprocess).
int cmdWorker(const char* prog, int argc, char** argv);

/// confail submit — enqueue a confail.job.v1 spec for the daemon.
int cmdSubmit(const char* prog, int argc, char** argv);

/// confail status — report job states from a spool directory.
int cmdStatus(const char* prog, int argc, char** argv);

/// confail results — fetch a completed job's merged documents.
int cmdResults(const char* prog, int argc, char** argv);

/// confail drain — ask the daemon to finish in-flight jobs and exit.
int cmdDrain(const char* prog, int argc, char** argv);

/// confail petri — N x M thread/lock net analysis + explorer cross-check.
int cmdPetri(const char* prog, int argc, char** argv);

// ---- shared flag parsing ---------------------------------------------------

/// The value of a flag: advances `i`; nullptr when the argument is missing.
inline const char* flagValue(int& i, int argc, char** argv) {
  return ++i < argc ? argv[i] : nullptr;
}

/// Strict unsigned decimal: the whole token must be digits and fit in 64
/// bits.  No sign, no whitespace, no trailing bytes, not empty.
inline bool parseDecimal(std::string_view s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

/// Parse an unsigned flag value (parseDecimal) into `out`, also rejecting a
/// value `out`'s type cannot hold.  Returns false on a missing value, and
/// reports a malformed one via `prog`; either way the caller exits 2.
template <class T>
bool parseU64(const char* prog, const char* flag, const char* v, T& out) {
  if (v == nullptr) return false;
  std::uint64_t n = 0;
  if (!parseDecimal(v, n) ||
      n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "%s: bad value for %s\n", prog, flag);
    return false;
  }
  out = static_cast<T>(n);
  return true;
}

/// What a shared flag parser made of argv[i].
enum class FlagParse { NotMine, Ok, Bad };

/// The per-run exploration budget flags of explore, inject and submit:
/// --max-runs, --max-steps, --max-depth and --workers, parsed into any
/// struct with the members maxRuns, maxSteps, maxBranchDepth and workers
/// (sched::ExhaustiveExplorer::Options, inject::JobSpec).  On a budget
/// flag, consumes its value (advancing `i`).
template <class Budget>
FlagParse parseBudgetFlag(const char* prog, int& i, int argc, char** argv,
                          Budget& b) {
  const char* flag = argv[i];
  bool ok = false;
  if (std::strcmp(flag, "--max-runs") == 0) {
    ok = parseU64(prog, flag, flagValue(i, argc, argv), b.maxRuns);
  } else if (std::strcmp(flag, "--max-steps") == 0) {
    ok = parseU64(prog, flag, flagValue(i, argc, argv), b.maxSteps);
  } else if (std::strcmp(flag, "--max-depth") == 0) {
    ok = parseU64(prog, flag, flagValue(i, argc, argv), b.maxBranchDepth);
  } else if (std::strcmp(flag, "--workers") == 0) {
    ok = parseU64(prog, flag, flagValue(i, argc, argv), b.workers);
  } else {
    return FlagParse::NotMine;
  }
  return ok ? FlagParse::Ok : FlagParse::Bad;
}

}  // namespace confail::cli
