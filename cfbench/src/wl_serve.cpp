// campaign_serve: the `confail serve` daemon, default configuration, draining
// a burst of two campaign jobs through a subprocess pool of `confail
// worker`s.  Its traced batches and their spool report the serve/inject
// layers and the offline detector battery.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "confail/detect/suite.hpp"
#include "confail/events/trace.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/serve/client.hpp"
#include "confail/serve/merge.hpp"
#include "confail/serve/server.hpp"
#include "confail/serve/store.hpp"
#include "confail/support/rng.hpp"

extern char** environ;

namespace cfbench {

namespace fs = std::filesystem;
namespace inject = confail::inject;
namespace serve = confail::serve;
using Reduction = confail::sched::ExhaustiveExplorer::Reduction;

namespace {

/// Branch-depth budgets of the burst's jobs; distinct, so no two jobs
/// share a shard (the store dedups identical specs).
constexpr std::size_t kJobDepths[] = {4, 5};
constexpr std::size_t kReferenceDepth = 4;
/// Shards of the first job also run as single `confail worker`s.
constexpr std::size_t kSpawnSamples = 16;
/// Period of the worker-pool memory sampler.
constexpr int kSampleMs = 2;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::string stripNewlines(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

/// Every registry scenario x the reductions x every injectable class, plus
/// negative controls.  Dpor stays out of the grid: see README.md.
inject::JobSpec campaignSpec(const std::string& name, std::size_t depth,
                             std::vector<Reduction> reductions) {
  inject::JobSpec spec;
  spec.name = name;
  spec.reductions = std::move(reductions);
  spec.maxBranchDepth = depth;
  return spec;
}

/// Run every shard of `spec` in-process on `threads` threads, capturing
/// events as `confail worker` does; per-shard wall times into `shardMs`.
std::vector<inject::ShardResult> runShardsInProcess(
    const inject::JobSpec& spec, const std::vector<inject::ShardSpec>& shards,
    std::size_t threads, std::vector<double>* shardMs = nullptr) {
  std::vector<inject::ShardResult> results(shards.size());
  std::vector<double> ms(shards.size(), 0.0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    inject::RunShardOptions ro;
    ro.captureEvents = true;
    for (std::size_t i; (i = next.fetch_add(1)) < shards.size();) {
      const auto t0 = Clock::now();
      results[i] = inject::runShard(spec, shards[i], ro);
      ms[i] = secondsSince(t0) * 1e3;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (shardMs != nullptr) *shardMs = std::move(ms);
  return results;
}

/// Wall time of one `confail worker` subprocess, in ms (<0 on failure).
double spawnWorker(const std::string& bin, const std::string& jobFile,
                   std::size_t shard, const std::string& out) {
  std::vector<std::string> args = {bin,     "worker", "--job", jobFile,
                                   "--shard", std::to_string(shard),
                                   "--out",   out};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const auto t0 = Clock::now();
  pid_t pid = -1;
  if (::posix_spawn(&pid, bin.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    return -1.0;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
  }
  const double ms = secondsSince(t0) * 1e3;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? ms : -1.0;
}

/// "Name" and VmRSS (kB) of one /proc/<pid>/status; 0 kB when gone.
double residentKb(const std::string& status, std::string* name = nullptr) {
  std::ifstream f(status);
  std::string line;
  double kb = 0.0;
  while (std::getline(f, line)) {
    if (name != nullptr && line.rfind("Name:", 0) == 0) {
      *name = line.substr(line.find_first_not_of(" \t", 5));
    } else if (line.rfind("VmRSS:", 0) == 0) {
      kb = std::stod(line.substr(6));
    }
  }
  return kb;
}

/// Peak of the memory the daemon and its worker pool hold together: this
/// process's RSS plus that of every child that has exec'd `confail`,
/// sampled every kSampleMs while the daemon drains.  (The kernel's
/// per-child peak is no use here: it counts the pages a child shares with
/// the daemon between fork and exec.)
class PoolRssSampler {
 public:
  PoolRssSampler() : thread_([this] { loop(); }) {}
  ~PoolRssSampler() { stop(); }

  /// Stop sampling; the peak in MB.
  double stop() {
    if (thread_.joinable()) {
      done_ = true;
      thread_.join();
    }
    return peakKb_ / 1024.0;
  }

 private:
  void loop() {
    // The daemon forks its workers from the main thread.
    const std::string pid = std::to_string(::getpid());
    const std::string children = "/proc/" + pid + "/task/" + pid + "/children";
    while (!done_) {
      double kb = residentKb("/proc/self/status");
      std::ifstream list(children);
      std::string child, name;
      while (list >> child) {
        const double childKb = residentKb("/proc/" + child + "/status", &name);
        if (name == "confail") kb += childKb;
      }
      peakKb_ = std::max(peakKb_, kb);
      std::this_thread::sleep_for(std::chrono::milliseconds(kSampleMs));
    }
  }

  std::atomic<bool> done_{false};
  double peakKb_ = 0.0;
  std::thread thread_;
};

struct Job {
  std::string id;
  inject::JobSpec spec;
  std::vector<inject::ShardSpec> shards;
};

/// One daemon drain of a spool: wall time, the CPU time its `confail
/// worker`s spent, and (traced) the daemon's metrics registry.
struct DaemonRun {
  int rc = 0;
  double seconds = 0.0;
  double workerCpuSec = 0.0;
  double poolPeakMb = 0.0;  ///< daemon + workers, sampled
  std::unique_ptr<confail::obs::Registry> reg;
};

DaemonRun runDaemon(const Ctx& ctx, const std::string& root, Tracer* tr) {
  serve::ServerOptions opts;  // defaults: subprocess pool, 25 ms poll
  opts.root = root;
  opts.poolSize = ctx.workers;
  opts.workerBinary = ctx.confailBin;
  opts.exitWhenIdle = true;
  DaemonRun d;
  if (tr != nullptr) {
    d.reg = std::make_unique<confail::obs::Registry>();
    opts.metrics = d.reg.get();
  }
  const double cpu0 = childCpuSeconds();
  PoolRssSampler sampler;
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tr, "serve.server.run");
    d.rc = serve::Server(std::move(opts)).run();
  }
  d.seconds = secondsSince(t0);
  d.poolPeakMb = sampler.stop();
  d.workerCpuSec = childCpuSeconds() - cpu0;
  return d;
}

/// Every shard result of `job` as the daemon left it in the spool.
std::vector<inject::ShardResult> loadShards(const std::string& root,
                                            const Job& job) {
  const serve::CampaignStore store(root);
  std::vector<inject::ShardResult> results(job.shards.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!store.readShard(job.id, i, results[i])) {
      throw std::runtime_error("shard " + std::to_string(i) + " of " + job.id +
                               " missing from the spool");
    }
  }
  return results;
}

/// The serve/inject/offline-battery metrics of one traced daemon drain,
/// read from its spool, plus single workers spawned on a sample of the
/// first job's shards.
void serveLayers(const Ctx& ctx, const std::string& root,
                 const std::vector<Job>& jobs, const DaemonRun& d, Tracer& tr,
                 Metrics& out) {
  tr.newRun("probe.serve.spool");
  std::vector<double> shardMs, analyzeMs, mergeMs;
  std::uint64_t exploreRuns = 0;
  for (const Job& job : jobs) {
    const std::vector<inject::ShardResult> results = loadShards(root, job);
    for (const inject::ShardResult& r : results) {
      shardMs.push_back(r.spec.control ? r.control.wallMs : r.cell.wallMs);
      exploreRuns += r.spec.control ? r.control.runs : r.cell.runs;
      // The offline battery on the shard's captured run.
      confail::ingest::JsonlDecoder dec;
      confail::events::Trace trace;
      auto record = [&trace](const confail::events::Event& e) {
        trace.record(e);
      };
      dec.feed(r.eventsJsonl, record);
      dec.flush(record);
      Tracer::Scope span(&tr, "detect.offline.analyze_shard_run");
      const auto t0 = Clock::now();
      confail::detect::DetectorSuite().analyze(trace);
      analyzeMs.push_back(secondsSince(t0) * 1e3);
    }
    Tracer::Scope span(&tr, "serve.merge");
    const auto t0 = Clock::now();
    serve::mergeShards(job.spec, job.id, results);
    mergeMs.push_back(secondsSince(t0) * 1e3);
  }
  out.set("inject.run_shard_ms_p50", quantile(shardMs, 0.5), "ms",
          shardMs.size());
  out.set("inject.run_shard_ms_p90", quantile(shardMs, 0.9), "ms",
          shardMs.size());
  out.set("inject.explore_runs", static_cast<double>(exploreRuns), "count",
          shardMs.size());
  out.set("detect.offline_analyze_ms_p50", quantile(analyzeMs, 0.5), "ms",
          analyzeMs.size());
  out.set("serve.merge_ms", median(mergeMs), "ms", mergeMs.size());

  const double pool = static_cast<double>(ctx.workers);
  out.set("serve.worker_busy_share", d.workerCpuSec / (pool * d.seconds),
          "ratio", shardMs.size());
  const double pollSec = serve::ServerOptions{}.pollMs * 1e-3;
  const std::uint64_t loops = d.reg->snapshot().counter("serve.heartbeats");
  out.set("serve.poll_sleep_share",
          static_cast<double>(loops) * pollSec / d.seconds, "ratio", loops);

  // A sample of the first job's shards, in-process and as subprocesses:
  // the shard wall a worker sees and the spawn overhead over runShard.
  tr.newRun("probe.serve.spawn");
  const Job& job = jobs.front();
  const std::string dir = ctx.workDir + "/spawn-probe";
  fs::create_directories(dir);
  const std::string jobFile = serve::CampaignStore(root).jobDir(job.id) +
                              "/job.json";
  std::vector<double> wallMs, overheadMs;
  const std::size_t stride =
      std::max<std::size_t>(1, job.shards.size() / kSpawnSamples);
  for (std::size_t i = 0; i < job.shards.size(); i += stride) {
    std::vector<double> inProcessMs;
    {
      Tracer::Scope span(&tr, "inject.run_shard");
      runShardsInProcess(job.spec, {job.shards[i]}, 1, &inProcessMs);
    }
    Tracer::Scope span(&tr, "serve.worker.spawn");
    const double ms = spawnWorker(ctx.confailBin, jobFile, i,
                                  dir + "/shard-" + std::to_string(i) + ".json");
    if (ms < 0) throw std::runtime_error("confail worker failed");
    wallMs.push_back(ms);
    overheadMs.push_back(ms - inProcessMs.front());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  out.set("serve.shard_wall_ms_p50", quantile(wallMs, 0.5), "ms",
          wallMs.size());
  out.set("serve.shard_wall_ms_p90", quantile(wallMs, 0.9), "ms",
          wallMs.size());
  out.set("serve.spawn_overhead_ms_p50", quantile(overheadMs, 0.5), "ms",
          overheadMs.size());
}

struct JobOutput {
  serve::JobState state;
  std::string findingsJson;
  std::string matrixJson;
  bool complete = false;
};

/// A fresh spool at `root` with `jobs` submitted as one burst.
void freshSpool(const std::string& root, const std::vector<Job>& jobs) {
  std::error_code ec;
  fs::remove_all(root, ec);
  for (const Job& j : jobs) {
    if (serve::submitJob(root, j.spec) != j.id) {
      throw std::runtime_error("submit into " + root + " failed");
    }
  }
}

/// The known answer of `jobs`: each job's shards run in-process on
/// `threads` threads and merged.  It runs in a child process, so the
/// explorer's per-thread memory never inflates the daemon's footprint.
/// Returns the merged findings digests, then 1 if every matrix is ok.
std::vector<std::uint64_t> referenceAnswer(const std::vector<Job>& jobs,
                                           std::size_t threads) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::vector<std::uint64_t> answer;
    std::uint64_t ok = 1;
    for (const Job& j : jobs) {
      const serve::MergedReports merged = serve::mergeShards(
          j.spec, j.id, runShardsInProcess(j.spec, j.shards, threads));
      answer.push_back(fnv1a(merged.findingsJson));
      ok = ok && merged.matrixOk;
    }
    answer.push_back(ok);
    const std::size_t bytes = answer.size() * sizeof(std::uint64_t);
    const bool sent = ::write(fds[1], answer.data(), bytes) ==
                      static_cast<ssize_t>(bytes);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  std::vector<std::uint64_t> answer(jobs.size() + 1);
  const std::size_t bytes = answer.size() * sizeof(std::uint64_t);
  std::size_t got = 0;
  for (ssize_t n; got < bytes &&
                  (n = ::read(fds[0], reinterpret_cast<char*>(answer.data()) + got,
                              bytes - got)) > 0;) {
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
  }
  if (got != bytes || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference answer process failed");
  }
  return answer;
}

Job makeJob(inject::JobSpec spec) {
  Job j;
  j.id = serve::CampaignStore::jobIdFor(spec);
  j.shards = inject::expandShards(spec);
  j.spec = std::move(spec);
  return j;
}

class ServeWorkload final : public Workload {
 public:
  const char* name() const override { return "campaign_serve"; }

  void setup(const Ctx& ctx) override {
    ctx_ = ctx;
    // The seed labels the jobs and orders the burst; the grid itself is
    // the registry, so every seed drains the same amount of work.
    confail::Xoshiro256 rng(ctx.seed);
    std::vector<std::size_t> depths(std::begin(kJobDepths),
                                    std::end(kJobDepths));
    confail::shuffle(depths, rng);
    jobs_.clear();
    for (std::size_t i = 0; i < depths.size(); ++i) {
      jobs_.push_back(makeJob(campaignSpec(
          "cfb" + std::to_string(ctx.seed) + "-" + std::to_string(i) + "-d" +
              std::to_string(depths[i]),
          depths[i], {Reduction::None, Reduction::Sleep})));
    }
    digests_ = referenceAnswer(jobs_, ctx.workers);
    matrixOk_ = digests_.back() == 1;
    digests_.pop_back();
    spool_ = ctx.workDir + "/spool";
    freshSpool(spool_, jobs_);
    spoolFresh_ = true;
  }

  void prepareRep(const Ctx&) override {
    if (!spoolFresh_) freshSpool(spool_, jobs_);
    spoolFresh_ = true;
  }

  RepOutcome rep(Tracer* tr) override {
    spoolFresh_ = false;
    const auto t0 = Clock::now();
    DaemonRun d = runDaemon(ctx_, spool_, tr);
    outputs_.assign(jobs_.size(), JobOutput{});
    {
      Tracer::Scope span(tr, "serve.client.results");
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        serve::JobResults res;
        serve::jobStatus(spool_, jobs_[i].id, outputs_[i].state);
        if (serve::jobResults(spool_, jobs_[i].id, res)) {
          outputs_[i].complete = res.complete;
          outputs_[i].findingsJson = stripNewlines(res.findingsJson);
          outputs_[i].matrixJson = res.matrixJson;
        }
      }
    }
    RepOutcome r;
    r.seconds = secondsSince(t0);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      r.attempted += jobs_[i].shards.size();
      r.failed += outputs_[i].state.shardsFailed;
    }
    if (d.rc != 0 && r.failed == 0) r.failed = 1;
    poolPeakMb_ = std::max(poolPeakMb_, d.poolPeakMb);
    if (tr != nullptr) traced_ = std::move(d);
    return r;
  }

  std::string check() const override { return checkOutputs(outputs_); }

  std::string checkCorrupted() const override {
    // Alter one shard result the daemon left in the spool (drop a finding
    // of the first job) and present the re-merged report as its output.
    if (outputs_.empty() || jobs_.empty()) return "no output";
    std::vector<JobOutput> bad = outputs_;
    std::vector<inject::ShardResult> altered = loadShards(spool_, jobs_[0]);
    for (inject::ShardResult& r : altered) {
      if (!r.findings.empty()) {
        r.findings.erase(r.findings.begin());
        break;
      }
    }
    bad[0].findingsJson =
        serve::mergeShards(jobs_[0].spec, jobs_[0].id, altered).findingsJson;
    return checkOutputs(bad);
  }

  void reportExtras(double verdictSeconds, std::size_t reps,
                    Metrics& out) const override {
    double shards = 0;
    for (const Job& j : jobs_) shards += static_cast<double>(j.shards.size());
    out.set("campaign.shards_per_sec", shards / verdictSeconds, "1/s", reps);
    out.set("campaign.shards", shards, "count");
    out.set("campaign.jobs", static_cast<double>(jobs_.size()), "count");
  }

  void layers(const Ctx& ctx, Tracer& tr, double, Metrics& out) override {
    // The spool still holds the last batch, which is a traced one.
    serveLayers(ctx, spool_, jobs_, traced_, tr, out);
    tr.attach("serve_registry", traced_.reg->snapshot().toJson());
  }

  void reference(const Ctx& ctx, Tracer& tr, Metrics& out) override {
    const std::vector<Job> jobs = {makeJob(campaignSpec(
        "cfbref" + std::to_string(ctx.seed), kReferenceDepth,
        {Reduction::None}))};
    const std::string root = ctx.workDir + "/reference-spool";
    freshSpool(root, jobs);
    tr.newRun("reference.serve.daemon");
    const DaemonRun d = runDaemon(ctx, root, &tr);
    if (d.rc != 0) throw std::runtime_error("reference daemon failed");
    serveLayers(ctx, root, jobs, d, tr, out);
    std::error_code ec;
    fs::remove_all(root, ec);
  }

  /// The daemon and its worker pool together.
  double timedPeakRssMb() const override {
    return std::max(peakRssMb(), poolPeakMb_);
  }

  std::string provenance() const override {
    return "\"serve_pool\": " + std::to_string(ctx_.workers) +
           ", \"serve_poll_ms\": " +
           std::to_string(serve::ServerOptions{}.pollMs) +
           ", \"serve_jobs\": " + std::to_string(jobs_.size());
  }

 private:
  std::string checkOutputs(const std::vector<JobOutput>& outs) const {
    if (outs.size() != jobs_.size()) return "missing job outputs";
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      const JobOutput& o = outs[i];
      if (o.state.status != "completed" || !o.complete) {
        return "job " + j.id + " is '" + o.state.status + "', not completed";
      }
      if (o.state.shardsDone != j.shards.size() || o.state.shardsFailed != 0) {
        return "job " + j.id + " finished " +
               std::to_string(o.state.shardsDone) + "/" +
               std::to_string(j.shards.size()) + " shards";
      }
      if (!matrixOk_ || o.matrixJson.find("\"ok\": true") == std::string::npos) {
        return "job " + j.id + " detection matrix is not ok";
      }
      if (fnv1a(o.findingsJson) != digests_[i]) {
        return "job " + j.id + " findings digest differs from the in-process merge";
      }
    }
    return "";
  }

  Ctx ctx_;
  std::vector<Job> jobs_;
  std::vector<std::uint64_t> digests_;  ///< of each job's in-process merge
  bool matrixOk_ = false;
  std::vector<JobOutput> outputs_;
  std::string spool_;
  bool spoolFresh_ = false;
  DaemonRun traced_;  ///< the last traced batch's drain
  double poolPeakMb_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace cfbench
