// Server: the `confail serve` daemon loop.
//
// One instance owns a CampaignStore root and runs jobs to completion:
//
//   read workers' replies -> land their shards -> dispatch to freed workers
//     -> merge jobs whose shards all settled -> stop the pool if no job is
//     left -> on the poll clock: scan queue/ and the drain marker, snapshot
//     metrics -> wait for a reply (at most pollMs) -> repeat
//
// The loop is event-driven.  Up to poolSize persistent workers are started
// lazily, each on a socketpair; a worker serves one shard request after
// another (the line protocol in worker.hpp) until the daemon closes its
// channel, which it does as soon as no job is in flight and before run()
// returns, reaping every worker.  The daemon blocks in poll(2) on the
// workers' channels, so a reply wakes it and the freed worker gets the
// next shard at once.  The pollMs timeout is only how often an otherwise
// idle daemon rescans queue/ and the drain marker.  The same pollMs is
// the daemon's bookkeeping clock: while jobs run, the queue/ and drain
// scans and the metricsOut snapshot happen at most once per pollMs.  No
// job status is written: CampaignStore::status derives it from the job's
// files, so what the daemon writes per job does not depend on pollMs.
//
// Each pool slot has a scratch buffer, a memfd the daemon opens with the
// worker and reuses for every shard it runs: the worker writes the shard's
// captured run there and replies with the shard's header, and the daemon
// lands it (CampaignStore::landShard): it copies the buffer onto the job's
// events.jsonl and only then appends the header, with the segment's offset,
// as the shard's line in journal.jsonl.  The journal line is the commit
// point, and a shard counts as landed only when both writes succeeded.  A
// buffer holds at most one shard's events, unmapped, and is emptied as soon
// as they are landed.
//
// Workers are subprocesses by default (`<self> worker --root DIR`, the
// channel on its stdin and stdout, the buffer on fd 3), so a shard that
// crashes or is killed
// takes down only its own process: the daemon sees the channel end, reaps
// the worker, charges the shard's request as one attempt, retries it once
// on another or a fresh worker, and otherwise journals the shard as failed
// without losing the job.  A shard is charged only for requests that
// reached a worker: a worker that cannot be started costs nothing.  An
// in-process pool (the same worker loop on threads) backs tests and
// sanitizer builds where fork+exec is unavailable or unsafe.
//
// Resume is structural: a shard is settled iff its line (a landing or a
// failure) is in the journal's valid prefix (see store.hpp), so a daemon
// restarted over an existing root — including after SIGKILL — re-expands
// each job whose status is running, cuts the journal and the feed back to
// that prefix, and dispatches only the unsettled shards.  A landed shard's
// line and segment are never rewritten, and each shard is journaled
// exactly once.  A merge writes findings.json, findings.sarif, then
// matrix.json; a write that fails leaves the job running for the next
// daemon to merge again.  The daemon keeps
// each landed shard's parsed header (which has no events) in memory and
// merges from there, never re-reading the spool, and it never holds a
// shard's events itself: the kernel copies them from buffer to feed.
//
// Observability: progress counters live in an obs::Registry
// (serve.jobs_adopted, serve.shards_completed, serve.shards_failed,
// serve.heartbeats = waits that timed out with nothing to settle,
// serve.workers_started = the pool size on a clean drain plus one per
// replaced worker, serve.events_bytes = bytes appended to the feeds,
// gauges serve.jobs_active / serve.workers_busy, histograms serve.land_us
// = µs to land one shard: reply parse + feed copy + journal line, and
// serve.refill_us = µs from a wake that settled requests to the end of
// its dispatch).  They are snapshot to
// `metricsOut` at most once per pollMs and at exit.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>

#include "confail/serve/store.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::serve {

struct ServerOptions {
  std::string root;          ///< spool directory (required)
  std::size_t poolSize = 2;  ///< concurrent shard workers
  /// Run shards as worker subprocesses (crash isolation).  false = run
  /// them on in-process threads.
  bool subprocess = true;
  /// Worker binary; empty = /proc/self/exe (the running confail binary).
  /// Started as `<bin> worker --root <root>`, it must speak the request
  /// protocol of worker.hpp on stdin/stdout and write each shard's events
  /// into the buffer on fd 3.
  std::string workerBinary;
  /// How a subprocess worker is forked; empty = fork(2).  A test puts a
  /// failing one here to stand for fork pressure.
  std::function<pid_t()> forkProcess;
  /// Longest wait for a worker to finish before the loop rescans queue/
  /// and the drain marker; also the metricsOut write interval.
  std::uint64_t pollMs = 25;
  /// Exit once the queue is empty and no job is in flight (one-shot batch
  /// mode; the tests run the daemon this way).  A drain request always
  /// ends the loop the same way.
  bool exitWhenIdle = false;
  /// Stop after this many merged jobs (0 = unlimited).
  std::uint64_t maxJobs = 0;
  /// Snapshot the metrics registry here at most once per pollMs and at
  /// exit ("" = off).
  std::string metricsOut;
  obs::Registry* metrics = nullptr;  ///< optional external registry
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Run the daemon loop until drained / idle-exit / maxJobs.  Returns 0
  /// when every completed job merged cleanly, 1 when any job failed, 3 on
  /// an unusable root.
  int run();

  const CampaignStore& store() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace confail::serve
