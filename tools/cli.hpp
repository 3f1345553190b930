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

#include <cstdint>
#include <cstdio>
#include <string>

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

/// Parse an unsigned integer flag value; returns false (and reports via
/// `prog`) on a missing or malformed value.
inline bool parseU64(const char* prog, const char* flag, const char* v,
                     std::uint64_t& out) {
  if (v == nullptr) return false;
  try {
    out = std::stoull(v);
    return true;
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s: bad value for %s\n", prog, flag);
    return false;
  }
}

}  // namespace confail::cli
