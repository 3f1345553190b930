#include "confail/serve/server.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/serve/merge.hpp"
#include "confail/support/assert.hpp"

namespace confail::serve {

using inject::JobSpec;
using inject::ShardResult;
using inject::ShardSpec;

namespace {

constexpr int kMaxAttempts = 2;  ///< one retry per shard before giving up

/// A close-on-exec fd that turns readable when `pid` exits, or -1 where the
/// kernel offers no pidfd_open; such a worker is reaped on a timed wake.
int openPidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

void closeFd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions o)
      : opts(std::move(o)), store(opts.root) {
    if (opts.poolSize == 0) opts.poolSize = 1;
    if (opts.metrics != nullptr) {
      reg = opts.metrics;
    } else {
      ownReg = std::make_unique<obs::Registry>();
      reg = ownReg.get();
    }
    jobsAdopted = &reg->counter("serve.jobs_adopted");
    jobsCompleted = &reg->counter("serve.jobs_completed");
    jobsFailed = &reg->counter("serve.jobs_failed");
    shardsCompleted = &reg->counter("serve.shards_completed");
    shardsFailed = &reg->counter("serve.shards_failed");
    heartbeats = &reg->counter("serve.heartbeats");
    eventsBytes = &reg->counter("serve.events_bytes");
    landUs = &reg->histogram("serve.land_us");
    refillUs = &reg->histogram("serve.refill_us");
    jobsActive = &reg->gauge("serve.jobs_active");
    workersBusy = &reg->gauge("serve.workers_busy");
  }

  ~Impl() {
    for (Worker& w : workers) closeFd(w.pidfd);
    closeFd(wakeFd);
  }

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  struct JobRun {
    JobSpec spec;
    std::vector<ShardSpec> shards;
    std::vector<bool> done;
    /// Landed shards' results without their events: what the merge reads.
    std::vector<ShardResult> results;
    std::vector<int> attempts;
    std::deque<std::size_t> pending;
    std::size_t inFlight = 0;
    std::uint64_t failed = 0;
    /// Shards landed since state.json was last written: it is rewritten
    /// on the poll clock, not once per landing.
    bool stateDirty = false;
  };

  struct Worker {
    std::string jobId;
    std::size_t shardIndex = 0;
    pid_t pid = -1;    ///< subprocess mode
    int pidfd = -1;    ///< readable once `pid` exits (-1: none)
    std::thread thread;
    std::shared_ptr<std::atomic<int>> state;  ///< 0 running, 1 ok, 2 failed
  };

  ServerOptions opts;
  CampaignStore store;
  std::unique_ptr<obs::Registry> ownReg;
  obs::Registry* reg = nullptr;
  obs::Counter* jobsAdopted = nullptr;
  obs::Counter* jobsCompleted = nullptr;
  obs::Counter* jobsFailed = nullptr;
  obs::Counter* shardsCompleted = nullptr;
  obs::Counter* shardsFailed = nullptr;
  obs::Counter* heartbeats = nullptr;
  obs::Counter* eventsBytes = nullptr;
  obs::Histogram* landUs = nullptr;
  obs::Histogram* refillUs = nullptr;
  obs::Gauge* jobsActive = nullptr;
  obs::Gauge* workersBusy = nullptr;

  /// In-process workers bump this eventfd after storing their state, so the
  /// daemon's poll(2) wakes on them as it does on a subprocess's pidfd.
  int wakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);

  std::map<std::string, JobRun> jobs;  ///< in-flight jobs by id
  std::vector<Worker> workers;
  std::uint64_t mergedJobs = 0;
  bool anyFailed = false;
  /// The poll clock: queue/ and drain scans, dirty state.json rewrites and
  /// metricsOut snapshots run at most once per pollMs.
  std::chrono::steady_clock::time_point lastTick;
  bool ticked = false;
  /// When the last poll(2) returned: a wake's refill is timed from here.
  std::chrono::steady_clock::time_point wokeAt;

  // -- job lifecycle -------------------------------------------------------

  void failJob(const std::string& id, const JobSpec* spec) {
    JobState st;
    st.id = id;
    st.name = spec != nullptr ? spec->name : "";
    st.status = "failed";
    // A malformed submission fails before adoption ever creates its job
    // directory, so make sure the state file has somewhere to land.
    std::error_code ec;
    std::filesystem::create_directories(store.jobDir(id), ec);
    (void)store.writeState(id, st);
    jobsFailed->inc();
    anyFailed = true;
  }

  void openJob(const std::string& id, JobSpec spec) {
    JobRun jr;
    jr.spec = std::move(spec);
    try {
      jr.shards = inject::expandShards(jr.spec);
    } catch (const Error&) {
      failJob(id, &jr.spec);
      return;
    }
    const std::size_t n = jr.shards.size();
    jr.done.assign(n, false);
    jr.results.resize(n);
    jr.attempts.assign(n, 0);
    // Resume criterion: a shard that landed (its header parses and its
    // sidecar has the size the header names) was completed by an earlier
    // daemon run and is never re-executed.  One killed between a shard
    // landing and journaling it left the journal short: record such a
    // landing now, so each shard is journaled once.
    const std::vector<bool> journaled = store.journaledShards(id, n);
    for (std::size_t i = 0; i < n; ++i) {
      ShardResult r;
      std::uint64_t bytes = 0;
      if (!store.readShardHeader(id, i, r, bytes)) {
        jr.pending.push_back(i);
        continue;
      }
      if (!journaled[i]) recordLanding(id, i, bytes);
      keep(jr, i, std::move(r));
    }
    publishState(id, jr, "running");
    jobsAdopted->inc();
    jobs.emplace(id, std::move(jr));
  }

  /// Journal a landed shard and append its sidecar to the job's heartbeat
  /// feed (journal first: a journaled shard is never recorded again).
  void recordLanding(const std::string& id, std::size_t index,
                     std::uint64_t sidecarBytes) const {
    (void)store.journalShard(id, index);
    std::uint64_t appended = 0;
    (void)store.appendShardEvents(id, index, sidecarBytes, appended);
    eventsBytes->add(appended);
  }

  /// Keep a landed shard's header for the merge, which never reads events.
  static void keep(JobRun& jr, std::size_t index, ShardResult r) {
    jr.done[index] = true;
    jr.results[index] = std::move(r);
  }

  void publishState(const std::string& id, const JobRun& jr,
                    const std::string& status,
                    std::uint64_t findings = 0) const {
    JobState st;
    st.id = id;
    st.name = jr.spec.name;
    st.status = status;
    st.shardsTotal = jr.shards.size();
    std::uint64_t done = 0;
    for (bool d : jr.done) done += d ? 1 : 0;
    st.shardsDone = done;
    st.shardsFailed = jr.failed;
    st.findings = findings;
    (void)store.writeState(id, st);
  }

  void adoptQueued() {
    for (const std::string& id : store.scanQueue()) {
      if (jobs.count(id) != 0) {
        store.removeQueued(id);  // duplicate submit of a running job
        continue;
      }
      JobSpec spec;
      std::string error;
      if (!store.adoptJob(id, spec, error)) {
        store.removeQueued(id);
        failJob(id, nullptr);
        continue;
      }
      openJob(id, std::move(spec));
    }
  }

  void resumeAdopted() {
    for (const std::string& id : store.listJobs()) {
      JobState st;
      if (store.readState(id, st) &&
          (st.status == "completed" || st.status == "failed")) {
        continue;
      }
      JobSpec spec;
      std::string error;
      if (!store.loadJob(id, spec, error)) {
        failJob(id, nullptr);
        continue;
      }
      openJob(id, std::move(spec));
    }
  }

  // -- worker pool ---------------------------------------------------------

  bool spawn(const std::string& id, JobRun& jr, std::size_t shardIndex) {
    Worker w;
    w.jobId = id;
    w.shardIndex = shardIndex;
    ++jr.attempts[shardIndex];
    if (opts.subprocess) {
      const std::string bin =
          opts.workerBinary.empty() ? "/proc/self/exe" : opts.workerBinary;
      std::vector<std::string> args = {
          bin,     "worker",                   "--job",
          store.jobDir(id) + "/job.json",      "--shard",
          std::to_string(shardIndex),          "--out",
          store.shardPath(id, shardIndex)};
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) return false;
      if (pid == 0) {
        ::execv(bin.c_str(), argv.data());
        ::_exit(127);  // exec failed; the parent records a shard failure
      }
      w.pid = pid;
      w.pidfd = openPidfd(pid);
    } else {
      w.state = std::make_shared<std::atomic<int>>(0);
      // Copies keep the thread self-contained; CampaignStore is a plain
      // path wrapper, safe to use concurrently.
      w.thread = std::thread(
          [state = w.state, st = store, spec = jr.spec,
           shard = jr.shards[shardIndex], id, wake = wakeFd]() {
            int result = 2;
            try {
              events::Trace run;
              const ShardResult r = inject::runShard(spec, shard, {}, run);
              result = st.writeShard(id, r, &run) ? 1 : 2;
            } catch (...) {
              // result stays 2: the daemon retries or fails the shard
            }
            state->store(result);
            if (wake >= 0) {
              const std::uint64_t one = 1;
              [[maybe_unused]] const ssize_t n =
                  ::write(wake, &one, sizeof one);
            }
          });
    }
    ++jr.inFlight;
    workers.push_back(std::move(w));
    return true;
  }

  void dispatch() {
    if (workers.size() >= opts.poolSize) return;
    for (auto& [id, jr] : jobs) {
      while (workers.size() < opts.poolSize && !jr.pending.empty()) {
        const std::size_t shardIndex = jr.pending.front();
        jr.pending.pop_front();
        if (!spawn(id, jr, shardIndex)) {
          jr.pending.push_front(shardIndex);
          return;  // fork pressure; retry next iteration
        }
      }
      if (workers.size() >= opts.poolSize) return;
    }
  }

  /// Returns -1 still running, 0 succeeded, 1 failed.
  int pollWorker(Worker& w) {
    if (w.pid >= 0) {
      int status = 0;
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got == 0) return -1;
      if (got != w.pid) return 1;
      return (WIFEXITED(status) && WEXITSTATUS(status) == 0) ? 0 : 1;
    }
    const int s = w.state->load();
    if (s == 0) return -1;
    if (w.thread.joinable()) w.thread.join();
    return s == 1 ? 0 : 1;
  }

  void onShardDone(const std::string& id, JobRun& jr, std::size_t index,
                   bool workerOk) {
    --jr.inFlight;
    const auto t0 = std::chrono::steady_clock::now();
    ShardResult r;
    std::uint64_t bytes = 0;
    if (workerOk && store.readShardHeader(id, index, r, bytes)) {
      recordLanding(id, index, bytes);
      keep(jr, index, std::move(r));
      landUs->observe(microsSince(t0));
      shardsCompleted->inc();
      jr.stateDirty = true;
      return;
    }
    if (jr.attempts[index] < kMaxAttempts) {
      jr.pending.push_back(index);  // crash isolation: retry once
      return;
    }
    ++jr.failed;
    shardsFailed->inc();
    publishState(id, jr, "running");
  }

  /// Land (or re-queue) every finished worker's shard; returns how many
  /// workers finished.
  std::size_t reap() {
    std::size_t reaped = 0;
    for (std::size_t i = 0; i < workers.size();) {
      const int result = pollWorker(workers[i]);
      if (result < 0) {
        ++i;
        continue;
      }
      Worker w = std::move(workers[i]);
      workers.erase(workers.begin() +
                    static_cast<std::ptrdiff_t>(i));
      closeFd(w.pidfd);
      ++reaped;
      auto it = jobs.find(w.jobId);
      if (it != jobs.end()) {
        onShardDone(w.jobId, it->second, w.shardIndex, result == 0);
      }
    }
    return reaped;
  }

  /// Block until a worker finishes or `pollMs` passes.  Returns false when
  /// the wait timed out, i.e. the daemon was idle for a whole poll interval.
  bool waitForWorker() {
    std::vector<pollfd> fds;
    fds.reserve(workers.size() + 1);
    if (wakeFd >= 0) fds.push_back({wakeFd, POLLIN, 0});
    for (const Worker& w : workers) {
      if (w.pidfd >= 0) fds.push_back({w.pidfd, POLLIN, 0});
    }
    const int timeoutMs =
        static_cast<int>(std::min<std::uint64_t>(opts.pollMs, INT_MAX));
    const int ready = ::poll(fds.data(), fds.size(), timeoutMs);
    wokeAt = std::chrono::steady_clock::now();
    if (ready > 0 && wakeFd >= 0 && (fds.front().revents & POLLIN) != 0) {
      std::uint64_t count = 0;  // reset the eventfd; reap() finds who woke
      [[maybe_unused]] const ssize_t n = ::read(wakeFd, &count, sizeof count);
    }
    return ready != 0;  // an EINTR wake is not an idle interval either
  }

  // -- merge ---------------------------------------------------------------

  void mergeFinished() {
    for (auto it = jobs.begin(); it != jobs.end();) {
      JobRun& jr = it->second;
      const bool allDone = jr.pending.empty() && jr.inFlight == 0;
      if (!allDone) {
        ++it;
        continue;
      }
      const std::string id = it->first;
      if (jr.failed > 0) {
        publishState(id, jr, "failed");
        jobsFailed->inc();
        anyFailed = true;
      } else {
        const MergedReports merged =
            mergeShards(jr.spec, id, std::move(jr.results));
        (void)CampaignStore::writeFileAtomic(store.findingsPath(id),
                                             merged.findingsJson + "\n");
        (void)CampaignStore::writeFileAtomic(store.sarifPath(id),
                                             merged.sarif + "\n");
        (void)CampaignStore::writeFileAtomic(store.matrixPath(id),
                                             merged.matrixJson + "\n");
        publishState(id, jr, "completed", merged.uniqueFindings);
        jobsCompleted->inc();
        ++mergedJobs;
      }
      it = jobs.erase(it);
    }
  }

  // -- poll clock ----------------------------------------------------------

  static std::uint64_t microsSince(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// True at most once per pollMs (and on the first call).
  bool tickDue() {
    const auto now = std::chrono::steady_clock::now();
    if (ticked && now - lastTick < std::chrono::milliseconds(opts.pollMs)) {
      return false;
    }
    lastTick = now;
    ticked = true;
    return true;
  }

  /// Rewrite state.json of every job that landed shards since its last.
  void flushStates() {
    for (auto& [id, jr] : jobs) {
      if (!jr.stateDirty) continue;
      publishState(id, jr, "running");
      jr.stateDirty = false;
    }
  }

  /// Refresh the gauges and write the metricsOut snapshot.
  void publishMetrics() {
    jobsActive->set(static_cast<double>(jobs.size()));
    workersBusy->set(static_cast<double>(workers.size()));
    if (opts.metricsOut.empty()) return;
    (void)CampaignStore::writeFileAtomic(opts.metricsOut,
                                         reg->snapshot().toJson() + "\n");
  }

  int run() {
    if (opts.root.empty() || !store.init()) return 3;
    resumeAdopted();
    bool draining = false;
    for (;;) {
      // Land what finished and refill the freed slots first; the rest of
      // the bookkeeping waits for the poll clock.  A worker is reaped only
      // after a wait, so wokeAt is set.
      if (reap() > 0) {
        dispatch();
        refillUs->observe(microsSince(wokeAt));
      }
      mergeFinished();
      if (tickDue()) {
        if (!draining) adoptQueued();
        if (store.drainRequested()) draining = true;
        flushStates();
        publishMetrics();
      }
      dispatch();  // newly adopted jobs
      if (opts.maxJobs != 0 && mergedJobs >= opts.maxJobs && jobs.empty()) {
        break;
      }
      if (draining && jobs.empty()) break;
      if (opts.exitWhenIdle && jobs.empty() && store.scanQueue().empty()) {
        break;
      }
      if (!waitForWorker()) heartbeats->inc();
    }
    // A drain marker is a one-shot request: consume it so the next daemon
    // started on this root serves normally instead of exiting immediately.
    if (draining) store.clearDrain();
    publishMetrics();
    return anyFailed ? 1 : 0;
  }
};

Server::Server(ServerOptions opts) : impl_(new Impl(std::move(opts))) {}

Server::~Server() {
  // Join any in-process stragglers so the pool never outlives the store.
  for (auto& w : impl_->workers) {
    if (w.thread.joinable()) w.thread.join();
    if (w.pid >= 0) {
      int status = 0;
      (void)::waitpid(w.pid, &status, 0);
    }
  }
  delete impl_;
}

int Server::run() { return impl_->run(); }

const CampaignStore& Server::store() const { return impl_->store; }

}  // namespace confail::serve
