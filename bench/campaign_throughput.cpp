// Campaign service throughput: the cost of running an injection campaign
// through the `confail serve` job machinery versus the serial in-process
// baseline, emitted as BENCH_serve.json.
//
// Two passes over the same confail.job.v1 grid:
//
//   1. Serial baseline — expandShards + runShard in a loop on one thread,
//      then mergeShards.  This is the one-shot `confail inject --campaign`
//      path and the floor the service must not fall meaningfully below.
//
//   2. Campaign service — the job submitted into a fresh spool and served
//      to completion twice: by the in-process worker pool (the daemon's
//      sanitizer configuration) and by the default pool of persistent
//      `confail worker` subprocesses, which adds process start-up and the
//      request/reply channel.  Each pass reports shards/sec and jobs/sec
//      including every service overhead: spool adoption, per-shard
//      checkpoint writes, journal appends and the final merge.
//
// Gates are correctness, not wall-clock (CI boxes vary): each service pass
// must complete all shards with zero failures, and its merged
// confail.findings.v1 document must be byte-identical to the serial
// merge — the determinism contract that makes crash-resume exact.
//
// `--smoke` shrinks the per-cell run budget so the binary finishes in a
// few seconds; the bench_smoke target runs that mode and leaves its
// BENCH_serve.json in the build directory.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/serve/client.hpp"
#include "confail/serve/merge.hpp"
#include "confail/serve/server.hpp"

namespace inject = confail::inject;
namespace serve = confail::serve;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inject::JobSpec benchSpec(bool smoke) {
  inject::JobSpec spec;
  spec.name = "bench";
  spec.scenarios = {"fig2", "lock_order", "ff_t5_small"};
  spec.reductions = {confail::sched::ExhaustiveExplorer::Reduction::None,
                     confail::sched::ExhaustiveExplorer::Reduction::Sleep};
  spec.maxRuns = smoke ? 80 : 800;
  spec.maxSteps = 1000;
  return spec;
}

/// Submit `spec` into a fresh spool and serve it to completion with the
/// in-process or the subprocess worker pool; report it under "service" or
/// "service_subprocess".  False on any gate failure.
bool servicePass(const inject::JobSpec& spec, std::size_t shardCount,
                 const std::string& serialFindings, double serialSec,
                 bool subprocess, confail::benchjson::Writer& json) {
  bool ok = true;
  const char* label = subprocess ? "service (subprocess pool)"
                                 : "service (in-process pool)";
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t pool = hw < 2 ? 2 : (hw > 4 ? 4 : hw);
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("confail-bench-serve-" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  const std::string id = serve::submitJob(root, spec);
  if (id.empty()) {
    std::printf("FAIL: submit into %s failed\n", root.c_str());
    ok = false;
  }

  serve::ServerOptions opts;
  opts.root = root;
  opts.poolSize = pool;
  opts.subprocess = subprocess;
  opts.workerBinary = CONFAIL_CLI;
  opts.exitWhenIdle = true;
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = serve::Server(std::move(opts)).run();
  const double sec = secondsSince(t0);
  if (rc != 0) {
    std::printf("FAIL: %s: server exited %d\n", label, rc);
    ok = false;
  }

  serve::JobState st;
  if (!serve::jobStatus(root, id, st) || st.status != "completed" ||
      st.shardsFailed != 0 || st.shardsDone != shardCount) {
    std::printf("FAIL: %s: job did not complete cleanly (status '%s', "
                "%llu/%llu shards, %llu failed)\n",
                label, st.status.c_str(),
                static_cast<unsigned long long>(st.shardsDone),
                static_cast<unsigned long long>(st.shardsTotal),
                static_cast<unsigned long long>(st.shardsFailed));
    ok = false;
  }

  serve::JobResults res;
  if (!serve::jobResults(root, id, res) || !res.complete) {
    std::printf("FAIL: %s: merged results missing\n", label);
    ok = false;
  }
  // The determinism gate: service merge == serial merge, byte for byte
  // (modulo the job id stamped into the document and the trailing
  // newline the store adds to files).
  std::string expected = serialFindings;
  for (std::string::size_type p = 0;
       (p = expected.find("bench-serial", p)) != std::string::npos;) {
    expected.replace(p, std::strlen("bench-serial"), id);
    p += id.size();
  }
  std::string got = res.findingsJson;
  while (!got.empty() && got.back() == '\n') got.pop_back();
  if (got != expected) {
    std::printf("FAIL: %s: findings differ from the serial merge\n", label);
    ok = false;
  }

  const double sps =
      sec > 0.0 ? static_cast<double>(shardCount) / sec : 0.0;
  const double jps = sec > 0.0 ? 1.0 / sec : 0.0;
  std::printf("%s: %zu shards in %.2fs (%.2f shards/sec, "
              "%.2f jobs/sec, pool %zu, findings %llu)\n",
              label, shardCount, sec, sps, jps, pool,
              static_cast<unsigned long long>(st.findings));
  std::printf("%s/serial wall-clock ratio: %.2fx\n", label,
              serialSec > 0.0 ? sec / serialSec : 0.0);

  json.key(subprocess ? "service_subprocess" : "service");
  json.beginObject();
  json.field("seconds", sec);
  json.field("shards_per_sec", sps);
  json.field("jobs_per_sec", jps);
  json.field("pool", static_cast<std::uint64_t>(pool));
  json.field("unique_findings", st.findings);
  json.field("findings_match_serial", got == expected);
  json.field("overhead_ratio", serialSec > 0.0 ? sec / serialSec : 0.0);
  json.endObject();

  std::filesystem::remove_all(root, ec);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bool ok = true;

  std::printf("=== Campaign service throughput (%s mode) ===\n\n",
              smoke ? "smoke" : "full");

  const inject::JobSpec spec = benchSpec(smoke);
  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);

  confail::benchjson::Writer json;
  json.beginObject();
  json.field("bench", "campaign_throughput");
  json.field("smoke", smoke);
  json.field("shards", static_cast<std::uint64_t>(shards.size()));
  json.field("max_runs_per_cell", spec.maxRuns);

  // ---- 1. serial baseline --------------------------------------------------
  std::string serialFindings;
  double serialSec = 0.0;
  {
    inject::RunShardOptions ro;  // resolved names, no event capture
    std::vector<inject::ShardResult> results;
    results.reserve(shards.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const inject::ShardSpec& s : shards) {
      results.push_back(inject::runShard(spec, s, ro));
    }
    serialSec = secondsSince(t0);
    const serve::MergedReports merged =
        serve::mergeShards(spec, "bench-serial", results);
    serialFindings = merged.findingsJson;
    const double sps =
        serialSec > 0.0 ? static_cast<double>(shards.size()) / serialSec : 0.0;
    std::printf("serial: %zu shards in %.2fs (%.2f shards/sec, "
                "%llu unique findings)\n",
                shards.size(), serialSec, sps,
                static_cast<unsigned long long>(merged.uniqueFindings));
    if (!merged.matrixOk) {
      std::printf("FAIL: serial campaign matrix not OK (control regression "
                  "or undetected seeded class)\n");
      ok = false;
    }
    json.key("serial");
    json.beginObject();
    json.field("seconds", serialSec);
    json.field("shards_per_sec", sps);
    json.field("unique_findings", merged.uniqueFindings);
    json.endObject();
  }

  // ---- 2. campaign service, both worker pools ------------------------------
  ok = servicePass(spec, shards.size(), serialFindings, serialSec,
                   /*subprocess=*/false, json) && ok;
  ok = servicePass(spec, shards.size(), serialFindings, serialSec,
                   /*subprocess=*/true, json) && ok;

  json.endObject();
  if (!json.writeFile("BENCH_serve.json")) {
    std::printf("FAIL: could not write BENCH_serve.json\n");
    ok = false;
  } else {
    std::printf("\nwrote BENCH_serve.json\n");
  }

  std::printf("\n%s\n",
              ok ? "CAMPAIGN THROUGHPUT: OK" : "CAMPAIGN THROUGHPUT: FAILURES");
  return ok ? 0 : 1;
}
