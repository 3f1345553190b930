// Server: the `confail serve` daemon loop.
//
// One instance owns a CampaignStore root and runs jobs to completion:
//
//   scan queue/ -> adopt job -> reap finished workers -> journal + state
//     -> merge jobs whose shards all landed -> dispatch to freed workers
//     -> wait for a worker to finish (at most pollMs) -> repeat
//
// The loop is event-driven: it blocks in poll(2) on one pidfd per worker
// subprocess and on an eventfd the in-process workers signal, so a
// finished shard's slot is refilled at once.  The pollMs timeout is only
// how often an otherwise idle daemon rescans queue/ and the drain marker
// (a worker without a pidfd is also reaped on that timed wake).
//
// Shards run in worker subprocesses by default (`<self> worker --job ...
// --shard N --out ...`), so a shard that crashes or is killed takes down
// only its own process: the daemon reaps the failure, retries once and
// otherwise records the shard as failed without losing the job.  An
// in-process pool (threads calling inject::runShard directly) backs tests
// and sanitizer builds where fork+exec is unavailable or unsafe.
//
// Resume is structural, not transactional: a shard is complete iff its
// result file exists and parses (the store writes it atomically), so a
// daemon restarted over an existing root — including after SIGKILL —
// re-expands each unfinished job and dispatches only the missing shards.
// Completed shard files are never rewritten, and each is journaled exactly
// once.  The daemon keeps every landed shard's result (minus its events)
// in memory and merges from there, never re-reading the spool.
//
// Observability: progress counters live in an obs::Registry
// (serve.jobs_adopted, serve.shards_completed, serve.shards_failed,
// serve.heartbeats = waits that timed out with nothing to reap, gauges
// serve.jobs_active / serve.workers_busy).  They are snapshot to
// `metricsOut` at most once per pollMs and at exit, and each completed
// shard's captured run is appended to the job's events.jsonl feed.
#pragma once

#include <cstdint>
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
  std::string workerBinary;
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
