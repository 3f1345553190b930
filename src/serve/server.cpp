#include "confail/serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "confail/obs/metrics.hpp"
#include "confail/serve/merge.hpp"
#include "confail/serve/worker.hpp"
#include "confail/support/assert.hpp"

namespace confail::serve {

using inject::JobSpec;
using inject::ShardResult;
using inject::ShardSpec;

namespace {

constexpr int kMaxAttempts = 2;  ///< one retry per shard before giving up
/// No reply line is longer: a worker sending more has broken the protocol.
constexpr std::size_t kMaxReplyBytes = 16u << 20;

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
    workersStarted = &reg->counter("serve.workers_started");
    landUs = &reg->histogram("serve.land_us");
    refillUs = &reg->histogram("serve.refill_us");
    jobsActive = &reg->gauge("serve.jobs_active");
    workersBusy = &reg->gauge("serve.workers_busy");
  }

  ~Impl() { stopWorkers(); }

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  struct JobRun {
    JobSpec spec;
    std::vector<ShardSpec> shards;
    /// Landed shards' results without their events: what the merge reads.
    std::vector<ShardResult> results;
    /// Requests for each shard that reached a worker.
    std::vector<int> attempts;
    std::deque<std::size_t> pending;
    /// Where the next landing's segment and journal line go.
    CampaignStore::JournalEnd end;
    std::size_t inFlight = 0;
    std::uint64_t failed = 0;
  };

  /// One persistent worker: a subprocess or a thread serving requests on
  /// the other end of `fd` (see worker.hpp).
  struct Worker {
    int fd = -1;         ///< the daemon's end of the worker's socketpair
    int events = -1;     ///< the scratch buffer it writes each shard's run to
    pid_t pid = -1;      ///< subprocess mode
    std::thread thread;  ///< in-process mode
    bool busy = false;   ///< a request for (jobId, shardIndex) is out
    std::string jobId;
    std::size_t shardIndex = 0;
    std::string replies;  ///< reply bytes read but not yet a whole line
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
  obs::Counter* workersStarted = nullptr;
  obs::Histogram* landUs = nullptr;
  obs::Histogram* refillUs = nullptr;
  obs::Gauge* jobsActive = nullptr;
  obs::Gauge* workersBusy = nullptr;

  std::map<std::string, JobRun> jobs;  ///< in-flight jobs by id
  std::vector<Worker> workers;
  /// The last wait's poll set, one entry per worker in `workers` order.
  std::vector<pollfd> polled;
  std::uint64_t mergedJobs = 0;
  bool anyFailed = false;
  /// The poll clock: queue/ and drain scans and metricsOut snapshots run at
  /// most once per pollMs.
  std::chrono::steady_clock::time_point lastTick;
  bool ticked = false;
  /// When the last poll(2) returned: a wake's refill is timed from here.
  std::chrono::steady_clock::time_point wokeAt;

  // -- job lifecycle -------------------------------------------------------

  // A job's status is derived from its files (CampaignStore::status), so
  // failing one writes nothing: it only counts.
  void failJob() {
    jobsFailed->inc();
    anyFailed = true;
  }

  /// Register job `id` and queue every shard its journal does not settle.
  /// An adopted job whose spec does not expand counts as failed.  On
  /// resume (`resuming`) such a job already reads as failed
  /// (CampaignStore::status), and so does one whose journal settles every
  /// shard with at least one failure: either is left uncounted and
  /// untouched.
  void openJob(const std::string& id, JobSpec spec, bool resuming) {
    JobRun jr;
    jr.spec = std::move(spec);
    try {
      jr.shards = inject::expandShards(jr.spec);
    } catch (const Error&) {
      if (!resuming) failJob();
      return;
    }
    const std::size_t n = jr.shards.size();
    jr.results.resize(n);
    jr.attempts.assign(n, 0);
    // Resume criterion: a shard the journal's valid prefix settles, landed
    // or failed for good by an earlier daemon run, is never re-executed.
    // What follows the prefix (a torn line, feed bytes a daemon killed
    // before the line copied) is cut away, so those shards run again and
    // land their events once.
    CampaignStore::Journal journal = store.readJournal(id, n);
    if (resuming && !journal.failed.empty() &&
        journal.landings.size() + journal.failed.size() == n) {
      return;
    }
    if (!store.truncateJournal(id, journal.end)) {
      failJob();
      return;
    }
    jr.end = journal.end;
    std::vector<bool> settled(n, false);
    for (CampaignStore::Landing& l : journal.landings) {
      settled[l.result.spec.index] = true;
      jr.results[l.result.spec.index] = std::move(l.result);
    }
    for (const std::size_t i : journal.failed) settled[i] = true;
    jr.failed = journal.failed.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!settled[i]) jr.pending.push_back(i);
    }
    jobsAdopted->inc();
    jobs.emplace(id, std::move(jr));
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
        // The refusal's record is an empty job directory, made before the
        // queue file goes so that the job never reads as unknown.
        std::error_code ec;
        std::filesystem::create_directories(store.jobDir(id), ec);
        store.removeQueued(id);
        failJob();
        continue;
      }
      openJob(id, std::move(spec), /*resuming=*/false);
    }
  }

  /// Reopen every job an earlier daemon adopted and did not finish.  Each
  /// job's spec and journal are read once, by loadJob and openJob.
  void resumeAdopted() {
    for (const std::string& id : store.listJobs()) {
      // The merge writes matrix.json last: all three documents exist only
      // once the job has completed.
      std::error_code ec;
      if (std::filesystem::is_regular_file(store.findingsPath(id), ec) &&
          std::filesystem::is_regular_file(store.sarifPath(id), ec) &&
          std::filesystem::is_regular_file(store.matrixPath(id), ec)) {
        continue;
      }
      JobSpec spec;
      std::string error;
      if (store.loadJob(id, spec, error)) {
        openJob(id, std::move(spec), /*resuming=*/true);
      }
    }
  }

  // -- worker pool ---------------------------------------------------------

  /// Start one worker on a fresh socketpair.  False when the system
  /// refuses (no fd, no fork, no thread): nothing is charged to any shard,
  /// and the next dispatch tries again.
  bool startWorker() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      return false;
    }
    Worker w;
    w.fd = sv[0];
    // Opened after the socketpair took the lowest free fds, the buffer is
    // never fd 0 or 1.
    w.events = openEventsBuffer();
    const auto abandon = [&] {
      ::close(sv[0]);
      ::close(sv[1]);
      closeFd(w.events);
    };
    if (w.events < 0) {
      abandon();
      return false;
    }
    if (opts.subprocess) {
      std::string bin =
          opts.workerBinary.empty() ? "/proc/self/exe" : opts.workerBinary;
      std::string verb = "worker";
      std::string flag = "--root";
      std::string root = opts.root;
      char* argv[] = {bin.data(), verb.data(), flag.data(), root.data(),
                      nullptr};
      pid_t pid = -1;
      try {
        pid = opts.forkProcess ? opts.forkProcess() : ::fork();
      } catch (...) {
        abandon();
        throw;
      }
      if (pid == 0) {
        // The worker's end becomes its stdin and stdout, its scratch buffer
        // fd 3.  dup2 clears close-on-exec on the copies; an fd already in
        // place (a daemon started with fds 0 and 1 closed) needs it
        // cleared by hand.  The channel goes first: its end may be fd 3.
        if (sv[1] <= STDOUT_FILENO) ::fcntl(sv[1], F_SETFD, 0);
        if (w.events == kEventsFd) ::fcntl(w.events, F_SETFD, 0);
        if (::dup2(sv[1], STDIN_FILENO) < 0 ||
            ::dup2(sv[1], STDOUT_FILENO) < 0 ||
            (w.events != kEventsFd && ::dup2(w.events, kEventsFd) < 0)) {
          ::_exit(127);
        }
        ::execv(bin.c_str(), argv);
        ::_exit(127);  // exec failed: the daemon sees EOF, a dead worker
      }
      ::close(sv[1]);
      if (pid < 0) {
        ::close(sv[0]);
        closeFd(w.events);
        return false;
      }
      w.pid = pid;
    } else {
      try {
        w.thread = std::thread([root = opts.root, fd = sv[1],
                                events = w.events] {
          try {
            (void)serveShardRequests(root, fd, fd, events);
          } catch (...) {
            // Closing the channel reports it: the daemon charges the shard
            // in flight as if a worker process had died.
          }
          ::close(fd);
        });
      } catch (const std::system_error&) {
        abandon();
        return false;
      }
    }
    workers.push_back(std::move(w));
    workersStarted->inc();
    return true;
  }

  /// End a worker: close its channel, which it reads as the end of its
  /// requests, then join or reap it.  `kill` first SIGKILLs a subprocess
  /// that has broken the protocol or closed its end while still running.
  static void stopWorker(Worker& w, bool kill) {
    closeFd(w.fd);
    if (w.thread.joinable()) w.thread.join();
    if (w.pid >= 0) {
      if (kill) ::kill(w.pid, SIGKILL);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
    closeFd(w.events);
  }

  /// Stop the whole pool: every channel closes first, so the workers exit
  /// together, then each is reaped.  Nothing is left running or unreaped.
  void stopWorkers() {
    for (Worker& w : workers) closeFd(w.fd);
    for (Worker& w : workers) stopWorker(w, w.busy);
    workers.clear();
  }

  /// Index of an idle worker, starting one if the pool has room; npos when
  /// every worker is busy or a new one could not start.
  std::size_t idleWorker() {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].busy) return i;
    }
    if (workers.size() < opts.poolSize && startWorker()) {
      return workers.size() - 1;
    }
    return static_cast<std::size_t>(-1);
  }

  /// Write one request; false when the worker is gone (EPIPE, never
  /// SIGPIPE).  A request line is far below the socket's buffer, so it is
  /// written whole or not at all.
  static bool sendRequest(const Worker& w, const std::string& id,
                          std::size_t shard) {
    const std::string line = id + " " + std::to_string(shard) + "\n";
    ssize_t n = -1;
    do {
      n = ::send(w.fd, line.data(), line.size(), MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    return n == static_cast<ssize_t>(line.size());
  }

  /// Hand pending shards to idle workers.  A shard is charged an attempt
  /// only once its request has reached a worker.
  void dispatch() {
    for (auto& [id, jr] : jobs) {
      while (!jr.pending.empty()) {
        const std::size_t i = idleWorker();
        if (i >= workers.size()) return;  // pool busy, or none could start
        Worker& w = workers[i];
        const std::size_t shard = jr.pending.front();
        if (!sendRequest(w, id, shard)) {
          // Died while idle; the next pass starts a fresh worker.
          stopWorker(w, true);
          workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
        jr.pending.pop_front();
        ++jr.attempts[shard];
        ++jr.inFlight;
        w.busy = true;
        w.jobId = id;
        w.shardIndex = shard;
      }
    }
  }

  /// Land the shard a worker answered with `header` (nullptr: it failed
  /// or died) from its scratch buffer `events`: parse the header, copy the
  /// events onto the feed, journal it.  A shard counts as landed only when
  /// all of that succeeded; otherwise it is retried once, then failed.
  void onShardDone(const std::string& id, JobRun& jr, std::size_t index,
                   const std::string* header, int events) {
    --jr.inFlight;
    const auto t0 = std::chrono::steady_clock::now();
    ShardResult r;
    std::uint64_t bytes = 0;
    std::string error;
    const bool landed =
        header != nullptr &&
        CampaignStore::shardFromJson(*header, r, bytes, error) &&
        r.spec.index == index &&
        r.spec.describe() == jr.shards[index].describe() &&
        store.landShard(id, *header, events, bytes, jr.end);
    // The buffer's pages go back now, not when the worker's next shard
    // overwrites them.
    if (events >= 0) (void)::ftruncate(events, 0);
    if (landed) {
      eventsBytes->add(bytes);
      // The merge reads the header alone, never the events.
      jr.results[index] = std::move(r);
      landUs->observe(microsSince(t0));
      shardsCompleted->inc();
      return;
    }
    if (jr.attempts[index] < kMaxAttempts) {
      jr.pending.push_back(index);  // crash isolation: retry once
      return;
    }
    ++jr.failed;
    shardsFailed->inc();
    // Committed, a resumed job does not run it again.  Uncommitted (the
    // journal cannot take the line), it does: the job is then not settled.
    (void)store.journalFailure(id, index, jr.end);
  }

  /// The worker's request is answered (`header`: ok) or lost: land or
  /// re-queue it.
  void finishRequest(Worker& w, const std::string* header) {
    w.busy = false;
    auto it = jobs.find(w.jobId);
    if (it != jobs.end()) {
      onShardDone(w.jobId, it->second, w.shardIndex, header, w.events);
    }
  }

  /// Read what a readable worker sent.  Returns false when the worker is
  /// finished with: its channel ended (it died, or was killed) or it broke
  /// the protocol.  `answered` counts the requests it settled.
  bool readReplies(Worker& w, std::size_t& answered) {
    char buf[64 * 1024];
    const ssize_t n = ::recv(w.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    }
    if (n > 0) {
      const std::size_t scanned = w.replies.size();
      w.replies.append(buf, static_cast<std::size_t>(n));
      bool broken = false;
      for (std::size_t from = scanned, eol;
           !broken && (eol = w.replies.find('\n', from)) != std::string::npos;
           from = 0) {
        const std::string line = w.replies.substr(0, eol);
        w.replies.erase(0, eol + 1);
        bool ok = false;
        std::string header;
        broken = !w.busy || !parseReply(line, w.shardIndex, ok, header);
        if (broken) break;
        finishRequest(w, ok ? &header : nullptr);
        ++answered;
      }
      if (!broken && w.replies.size() <= kMaxReplyBytes) return true;
    }
    // End of the channel, or a reply nobody asked for or too long: the
    // in-flight request (if any) is charged as a crash.
    if (w.busy) {
      finishRequest(w, nullptr);
      ++answered;
    }
    return false;
  }

  /// Settle every request whose worker replied or died since the last
  /// wait; returns how many were settled.
  std::size_t reap() {
    std::size_t answered = 0;
    // Backwards, so erasing a finished worker keeps `polled` aligned.
    const bool aligned = polled.size() == workers.size();
    for (std::size_t i = workers.size(); aligned && i-- > 0;) {
      if (polled[i].revents == 0) continue;
      if (readReplies(workers[i], answered)) continue;
      stopWorker(workers[i], true);
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
    }
    polled.clear();
    return answered;
  }

  /// Block until a worker replies or its channel ends, or `pollMs` passes.
  /// Returns false when the wait timed out, i.e. the daemon was idle for a
  /// whole poll interval.
  bool waitForWorker() {
    polled.clear();
    for (const Worker& w : workers) polled.push_back({w.fd, POLLIN, 0});
    const int timeoutMs =
        static_cast<int>(std::min<std::uint64_t>(opts.pollMs, INT_MAX));
    const int ready = ::poll(polled.data(), polled.size(), timeoutMs);
    wokeAt = std::chrono::steady_clock::now();
    if (ready < 0) polled.clear();
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
        failJob();
      } else {
        // matrix.json goes last: the job reads as completed once all three
        // documents exist.  A write that fails stops the merge there, and
        // the job stays running until a later daemon merges it again from
        // the journal.
        const MergedReports merged =
            mergeShards(jr.spec, id, std::move(jr.results));
        if (CampaignStore::writeFileAtomic(store.findingsPath(id),
                                           merged.findingsJson + "\n") &&
            CampaignStore::writeFileAtomic(store.sarifPath(id),
                                           merged.sarif + "\n") &&
            CampaignStore::writeFileAtomic(store.matrixPath(id),
                                           merged.matrixJson + "\n")) {
          jobsCompleted->inc();
          ++mergedJobs;
        } else {
          failJob();
        }
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

  /// Refresh the gauges and write the metricsOut snapshot.
  void publishMetrics() {
    jobsActive->set(static_cast<double>(jobs.size()));
    workersBusy->set(static_cast<double>(
        std::count_if(workers.begin(), workers.end(),
                      [](const Worker& w) { return w.busy; })));
    if (opts.metricsOut.empty()) return;
    (void)CampaignStore::writeFileAtomic(opts.metricsOut,
                                         reg->snapshot().toJson() + "\n");
  }

  int run() {
    if (opts.root.empty() || !store.init()) return 3;
    resumeAdopted();
    bool draining = false;
    for (;;) {
      // Land what finished and refill the freed workers first; the rest of
      // the bookkeeping waits for the poll clock.  A request is settled
      // only after a wait, so wokeAt is set.
      if (reap() > 0) {
        dispatch();
        refillUs->observe(microsSince(wokeAt));
      }
      mergeFinished();
      // The pool lives only while jobs do.  Every exit below needs an
      // empty job table, so run() never returns with a worker left.
      if (jobs.empty()) stopWorkers();
      if (tickDue()) {
        if (!draining) adoptQueued();
        if (store.drainRequested()) draining = true;
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

Server::~Server() { delete impl_; }

int Server::run() { return impl_->run(); }

const CampaignStore& Server::store() const { return impl_->store; }

}  // namespace confail::serve
