// `confail serve` and its satellites: the campaign service verbs.
//
//   serve   --root DIR [--pool N] [--in-process] [--exit-when-idle]
//           [--max-jobs N] [--poll-ms N] [--metrics-out FILE]
//           [--worker-bin PATH]
//       Run the campaign daemon over a spool directory: adopt queued
//       confail.job.v1 specs, fan their shards across a pool of up to N
//       persistent `confail worker --root DIR` subprocesses (threads with
//       --in-process), land every shard by appending its
//       events to the job's events.jsonl and its header to journal.jsonl
//       (the commit point), merge finished jobs into
//       findings/SARIF/matrix documents.  Workers start as shards need
//       them and all exit when no job is in flight.  Resumable: restarting
//       over the same root (even after SIGKILL) re-runs only the shards
//       the journal has not settled (landed or failed for good).  The
//       daemon wakes the moment a worker replies; --poll-ms (default 25)
//       only bounds how long it waits before rescanning queue/ and the
//       drain marker, and how often --metrics-out is rewritten.
//
//   worker  --job FILE --shard N --out FILE
//       Execute one shard of a job spec and write it atomically as one
//       file: its confail.shard.v3 header on the first line, then its
//       captured run as raw JSONL (`events_bytes` of them).  A public verb
//       so a shard can be reproduced by hand; the header is the one the
//       daemon journals (less `events_offset`) and the events are the
//       shard's segment of the feed.
//
//   worker  --root DIR
//       The daemon's persistent worker: read "<job-id> <shard>" requests
//       from stdin, run each shard of the job under DIR with its captured
//       run written into the scratch buffer the daemon opened on fd 3, and
//       reply
//       "<shard> ok <header>" or "<shard> failed" on stdout, until stdin
//       ends.  It writes no file: the daemon lands what it replies.
//
//   submit  --root DIR (--job FILE | --name N [--scenario S]...
//           [--class C]... [--reduction R]... [exploration flags])
//       Enqueue a job (from a spec file, or built from flags) and print
//       its id.  Idempotent per spec content.
//
//   status  --root DIR [--job ID] [--json]
//       Report job states, derived from each job's files (job.json, the
//       journal, the merged documents; queued jobs included).
//
//   results --root DIR --job ID [--json-out F] [--sarif-out F]
//           [--matrix-out F] [--json]
//       Fetch a completed job's merged documents.
//
//   drain   --root DIR
//       Ask the daemon to finish in-flight jobs and exit.
//
// Exit codes follow the cli.hpp convention: 0 clean, 1 findings/failures
// (a failed job, unfinished results), 2 usage, 3 internal/IO error.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/serve/client.hpp"
#include "confail/serve/server.hpp"
#include "confail/serve/store.hpp"
#include "confail/serve/worker.hpp"

namespace confail::cli {

namespace serve = confail::serve;
namespace inject = confail::inject;

namespace {

int usageServe(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --root DIR [--pool N] [--in-process] "
               "[--exit-when-idle]\n"
               "               [--max-jobs N] [--poll-ms N] "
               "[--metrics-out FILE] [--worker-bin PATH]\n"
               "  --poll-ms N  longest wait between scans for new jobs and "
               "the drain marker;\n"
               "               also the --metrics-out write interval (a "
               "finished shard\n"
               "               wakes the daemon at once; default 25)\n",
               prog);
  return 2;
}

int usageWorker(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --job FILE --shard N --out FILE\n"
               "  writes the shard's header line, then its events, to "
               "FILE\n"
               "       %s --root DIR\n"
               "  serves '<job-id> <shard>' requests from stdin, writing "
               "each shard's events\n"
               "  to the buffer on fd 3 and replying '<shard> ok <header>' "
               "or '<shard> failed'\n",
               prog, prog);
  return 2;
}

int usageSubmit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --root DIR (--job FILE | [--name N] "
               "[--scenario S]... [--class C]...\n"
               "               [--reduction none|sleep|dpor]... "
               "[--max-runs N] [--max-steps N]\n"
               "               [--max-depth N] [--workers N] "
               "[--no-controls])\n",
               prog);
  return 2;
}

int usageStatus(const char* prog) {
  std::fprintf(stderr, "usage: %s --root DIR [--job ID] [--json]\n", prog);
  return 2;
}

int usageResults(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --root DIR --job ID [--json-out FILE] "
               "[--sarif-out FILE]\n"
               "               [--matrix-out FILE] [--json]\n",
               prog);
  return 2;
}

int usageDrain(const char* prog) {
  std::fprintf(stderr, "usage: %s --root DIR\n", prog);
  return 2;
}

bool readWholeFile(const std::string& path, std::string& out) {
  return serve::CampaignStore::readFile(path, out);
}

void printState(const serve::JobState& st) {
  std::printf("%-40s %-10s shards %llu/%llu", st.id.c_str(),
              st.status.c_str(),
              static_cast<unsigned long long>(st.shardsDone),
              static_cast<unsigned long long>(st.shardsTotal));
  if (st.shardsFailed > 0) {
    std::printf(" (%llu failed)",
                static_cast<unsigned long long>(st.shardsFailed));
  }
  if (st.status == "completed") {
    std::printf(", findings %llu",
                static_cast<unsigned long long>(st.findings));
  }
  std::printf("\n");
}

}  // namespace

int cmdServe(const char* prog, int argc, char** argv) {
  serve::ServerOptions opts;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usageServe(prog);
      opts.root = v;
    } else if (arg == "--pool") {
      if (!parseU64(prog, "--pool", next(), opts.poolSize)) {
        return usageServe(prog);
      }
    } else if (arg == "--in-process") {
      opts.subprocess = false;
    } else if (arg == "--exit-when-idle") {
      opts.exitWhenIdle = true;
    } else if (arg == "--max-jobs") {
      if (!parseU64(prog, "--max-jobs", next(), opts.maxJobs)) {
        return usageServe(prog);
      }
    } else if (arg == "--poll-ms") {
      if (!parseU64(prog, "--poll-ms", next(), opts.pollMs)) {
        return usageServe(prog);
      }
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usageServe(prog);
      opts.metricsOut = v;
    } else if (arg == "--worker-bin") {
      const char* v = next();
      if (v == nullptr) return usageServe(prog);
      opts.workerBinary = v;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usageServe(prog);
    }
  }
  if (opts.root.empty()) return usageServe(prog);
  try {
    serve::Server server(std::move(opts));
    return server.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 3;
  }
}

int cmdWorker(const char* prog, int argc, char** argv) {
  std::string root;
  std::string jobPath;
  std::string outPath;
  std::uint64_t shardIndex = 0;
  bool haveShard = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usageWorker(prog);
      root = v;
    } else if (arg == "--job") {
      const char* v = next();
      if (v == nullptr) return usageWorker(prog);
      jobPath = v;
    } else if (arg == "--shard") {
      if (!parseU64(prog, "--shard", next(), shardIndex)) {
        return usageWorker(prog);
      }
      haveShard = true;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usageWorker(prog);
      outPath = v;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usageWorker(prog);
    }
  }
  const bool oneShot = !jobPath.empty() || !outPath.empty() || haveShard;
  if (!root.empty() && !oneShot) {
    return serve::serveShardRequests(root, STDIN_FILENO, STDOUT_FILENO,
                                     serve::kEventsFd);
  }
  if (!root.empty() || jobPath.empty() || outPath.empty() || !haveShard) {
    return usageWorker(prog);
  }
  std::string error;
  const int rc = serve::writeShard(
      jobPath, static_cast<std::size_t>(shardIndex), outPath, error);
  if (rc != 0) std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
  return rc;
}

int cmdSubmit(const char* prog, int argc, char** argv) {
  std::string root;
  std::string jobPath;
  inject::JobSpec spec;
  spec.maxRuns = 400;  // service default: modest per-cell budget
  bool builtFromFlags = false;
  bool reductionGiven = false;  // the first --reduction replaces the default
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    const FlagParse budget = parseBudgetFlag(prog, i, argc, argv, spec);
    if (budget == FlagParse::Bad) return usageSubmit(prog);
    if (budget == FlagParse::Ok) {
      builtFromFlags = true;
      continue;
    }
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usageSubmit(prog);
      root = v;
    } else if (arg == "--job") {
      const char* v = next();
      if (v == nullptr) return usageSubmit(prog);
      jobPath = v;
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) return usageSubmit(prog);
      spec.name = v;
      builtFromFlags = true;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return usageSubmit(prog);
      spec.scenarios.push_back(v);
      builtFromFlags = true;
    } else if (arg == "--class") {
      const char* v = next();
      taxonomy::FailureClass cls = taxonomy::FailureClass::FF_T5;
      if (v == nullptr || !taxonomy::parseFailureClass(v, cls)) {
        std::fprintf(stderr, "%s: unknown failure class '%s'\n", prog,
                     v == nullptr ? "" : v);
        return usageSubmit(prog);
      }
      spec.classes.push_back(cls);
      builtFromFlags = true;
    } else if (arg == "--reduction") {
      const char* v = next();
      sched::ExhaustiveExplorer::Reduction r =
          sched::ExhaustiveExplorer::Reduction::None;
      if (v == nullptr || !inject::parseReduction(v, r)) {
        std::fprintf(stderr, "%s: unknown reduction '%s'\n", prog,
                     v == nullptr ? "" : v);
        return usageSubmit(prog);
      }
      if (!reductionGiven) spec.reductions.clear();
      spec.reductions.push_back(r);
      reductionGiven = true;
      builtFromFlags = true;
    } else if (arg == "--no-controls") {
      spec.negativeControls = false;
      builtFromFlags = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usageSubmit(prog);
    }
  }
  if (root.empty()) return usageSubmit(prog);
  if (!jobPath.empty() && builtFromFlags) {
    std::fprintf(stderr, "%s: --job and spec flags are exclusive\n", prog);
    return usageSubmit(prog);
  }
  if (!jobPath.empty()) {
    std::string text;
    if (!readWholeFile(jobPath, text)) {
      std::fprintf(stderr, "%s: cannot read %s\n", prog, jobPath.c_str());
      return 3;
    }
    std::string error;
    if (!inject::JobSpec::parse(text, spec, error)) {
      std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
      return 2;
    }
  }
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    std::fprintf(stderr, "%s: invalid job spec: %s\n", prog,
                 problem.c_str());
    return 2;
  }
  const std::string id = serve::submitJob(root, spec);
  if (id.empty()) {
    std::fprintf(stderr, "%s: cannot write to spool root %s\n", prog,
                 root.c_str());
    return 3;
  }
  std::printf("%s\n", id.c_str());
  return 0;
}

int cmdStatus(const char* prog, int argc, char** argv) {
  std::string root;
  std::string jobId;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usageStatus(prog);
      root = v;
    } else if (arg == "--job") {
      const char* v = next();
      if (v == nullptr) return usageStatus(prog);
      jobId = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usageStatus(prog);
    }
  }
  if (root.empty()) return usageStatus(prog);
  std::vector<serve::JobState> states;
  if (!jobId.empty()) {
    serve::JobState st;
    if (!serve::jobStatus(root, jobId, st)) {
      std::fprintf(stderr, "%s: unknown job '%s'\n", prog, jobId.c_str());
      return 1;
    }
    states.push_back(std::move(st));
  } else {
    states = serve::allJobStatus(root);
  }
  if (json) {
    std::printf("%s\n", serve::statusToJson(states).c_str());
  } else {
    for (const serve::JobState& st : states) printState(st);
    if (states.empty()) std::printf("no jobs\n");
  }
  for (const serve::JobState& st : states) {
    if (st.status == "failed") return 1;
  }
  return 0;
}

int cmdResults(const char* prog, int argc, char** argv) {
  std::string root;
  std::string jobId;
  std::string jsonOut;
  std::string sarifOut;
  std::string matrixOut;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usageResults(prog);
      root = v;
    } else if (arg == "--job") {
      const char* v = next();
      if (v == nullptr) return usageResults(prog);
      jobId = v;
    } else if (arg == "--json-out") {
      const char* v = next();
      if (v == nullptr) return usageResults(prog);
      jsonOut = v;
    } else if (arg == "--sarif-out") {
      const char* v = next();
      if (v == nullptr) return usageResults(prog);
      sarifOut = v;
    } else if (arg == "--matrix-out") {
      const char* v = next();
      if (v == nullptr) return usageResults(prog);
      matrixOut = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usageResults(prog);
    }
  }
  if (root.empty() || jobId.empty()) return usageResults(prog);
  serve::JobResults results;
  if (!serve::jobResults(root, jobId, results)) {
    std::fprintf(stderr, "%s: unknown job '%s'\n", prog, jobId.c_str());
    return 1;
  }
  if (!results.complete) {
    std::fprintf(stderr, "%s: job '%s' has no merged results yet\n", prog,
                 jobId.c_str());
    return 1;
  }
  if (!jsonOut.empty() && !serve::CampaignStore::writeFileAtomic(
                              jsonOut, results.findingsJson)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, jsonOut.c_str());
    return 3;
  }
  if (!sarifOut.empty() &&
      !serve::CampaignStore::writeFileAtomic(sarifOut, results.sarif)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, sarifOut.c_str());
    return 3;
  }
  if (!matrixOut.empty() && !serve::CampaignStore::writeFileAtomic(
                                matrixOut, results.matrixJson)) {
    std::fprintf(stderr, "%s: cannot write %s\n", prog, matrixOut.c_str());
    return 3;
  }
  if (json || (jsonOut.empty() && sarifOut.empty() && matrixOut.empty())) {
    std::fputs(results.findingsJson.c_str(), stdout);
    if (!results.findingsJson.empty() &&
        results.findingsJson.back() != '\n') {
      std::printf("\n");
    }
  }
  return 0;
}

int cmdDrain(const char* prog, int argc, char** argv) {
  std::string root;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return usageDrain(prog);
      root = v;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usageDrain(prog);
    }
  }
  if (root.empty()) return usageDrain(prog);
  if (!serve::requestDrain(root)) {
    std::fprintf(stderr, "%s: cannot write to spool root %s\n", prog,
                 root.c_str());
    return 3;
  }
  std::printf("drain requested\n");
  return 0;
}

}  // namespace confail::cli
