// CampaignStore: the persistent spool directory behind `confail serve`.
//
// The store is the entire control surface of the campaign service — clients
// and daemon never talk over a socket, they exchange files under one root:
//
//   root/
//     queue/<job-id>.json        submitted confail.job.v1 specs (submit)
//     ctl/drain                  marker file: finish running jobs, then exit
//     jobs/<job-id>/
//       job.json                 the adopted canonical spec
//       state.json               confail.jobstate.v1 progress summary
//       shards/shard-NNNN.json   one confail.shard.v1 result per done shard
//       journal.jsonl            append-only completion log, exactly one
//                                line per landed shard across crashes: the
//                                daemon journals a shard when it reaps it,
//                                and at adoption journals any landed shard
//                                the log lacks (a daemon killed between the
//                                file landing and the journal line)
//       events.jsonl             heartbeat feed: each shard's captured run
//                                as obs::toJsonl lines (`confail ingest`
//                                consumes this directly)
//       findings.json            merged confail.findings.v1 (on completion)
//       findings.sarif           merged SARIF 2.1.0
//       matrix.json              merged confail.injection.v1 matrix
//
// Every file the store writes lands via write-to-temp + rename in the same
// directory, so readers (including a daemon resuming after SIGKILL) only
// ever see absent or complete documents — a half-written shard is
// impossible, which is what makes "shard file exists and parses" the
// resume criterion.
//
// Job ids are content-derived (`<name>-<hash of the canonical spec JSON>`),
// so re-submitting the same spec is idempotent: same id, same queue file,
// and a daemon that already ran it serves the stored results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/inject/job_spec.hpp"

namespace confail::serve {

/// Progress summary of one job (the state.json document).
struct JobState {
  std::string id;
  std::string name;
  std::string status;  ///< "queued" | "running" | "completed" | "failed"
  std::uint64_t shardsTotal = 0;
  std::uint64_t shardsDone = 0;
  std::uint64_t shardsFailed = 0;
  std::uint64_t findings = 0;  ///< unique findings after the merge

  std::string toJson() const;  ///< confail.jobstate.v1
  static bool parse(const std::string& json, JobState& out,
                    std::string& error);
};

class CampaignStore {
 public:
  explicit CampaignStore(std::string root);

  const std::string& root() const { return root_; }

  /// Create queue/, jobs/ and ctl/.  Returns false on I/O failure.
  bool init() const;

  /// Content-derived job id: sanitized spec name + FNV-1a of the canonical
  /// spec rendering.  Equal specs always map to the same id.
  static std::string jobIdFor(const inject::JobSpec& spec);

  // -- client side ---------------------------------------------------------

  /// Enqueue a spec (atomic write into queue/).  Idempotent: an already
  /// queued or already adopted identical spec keeps its id.  Returns the
  /// job id, or "" on I/O failure.
  std::string submit(const inject::JobSpec& spec) const;

  /// Ask the daemon to finish in-flight jobs and exit (touch ctl/drain).
  bool requestDrain() const;
  bool drainRequested() const;
  void clearDrain() const;

  // -- daemon side ---------------------------------------------------------

  /// Job ids with a spec waiting in queue/ (sorted).
  std::vector<std::string> scanQueue() const;

  /// Ids of every job under jobs/ (sorted).
  std::vector<std::string> listJobs() const;

  /// Move a queued spec into jobs/<id>/job.json and remove the queue file.
  /// Safe to call for a job directory that already exists (resubmit).
  bool adoptJob(const std::string& id, inject::JobSpec& out,
                std::string& error) const;

  /// Load jobs/<id>/job.json (a job adopted by a previous daemon run).
  bool loadJob(const std::string& id, inject::JobSpec& out,
               std::string& error) const;

  /// Drop a queued spec without adopting it (malformed submissions would
  /// otherwise be re-scanned forever).
  void removeQueued(const std::string& id) const;

  // -- paths ---------------------------------------------------------------

  std::string jobDir(const std::string& id) const;
  std::string shardPath(const std::string& id, std::size_t index) const;
  std::string statePath(const std::string& id) const;
  std::string journalPath(const std::string& id) const;
  std::string eventsPath(const std::string& id) const;
  std::string findingsPath(const std::string& id) const;
  std::string sarifPath(const std::string& id) const;
  std::string matrixPath(const std::string& id) const;

  // -- shard persistence ---------------------------------------------------

  /// Serialize / parse one shard result (schema confail.shard.v1).  The
  /// injection plan is not on the wire: parse reconstructs it with
  /// defaultPlanFor, which is deterministic in (class, scenario).
  static std::string shardToJson(const inject::ShardResult& r);
  static bool shardFromJson(const std::string& json, inject::ShardResult& out,
                            std::string& error);

  /// Atomically write one shard result to `path`.  Given `run` (the shard's
  /// captured run, from the runShard overload that takes a trace), the
  /// events_jsonl value is streamed into the file one event line at a time
  /// instead of taken from r.eventsJsonl, so the payload is never held as
  /// one string.  Either way the bytes are shardToJson + "\n" of the result
  /// whose eventsJsonl is obs::toJsonl(*run).
  static bool writeShardFile(const std::string& path,
                             const inject::ShardResult& r,
                             const events::Trace* run = nullptr);

  /// writeShardFile into shard r.spec.index of job `id`.
  bool writeShard(const std::string& id, const inject::ShardResult& r,
                  const events::Trace* run = nullptr) const;

  /// True (and parses into `out`) when shard `index` completed earlier.
  bool readShard(const std::string& id, std::size_t index,
                 inject::ShardResult& out) const;

  /// completed[i] == true iff shard i's file exists and parses.
  std::vector<bool> completedShards(const std::string& id,
                                    std::size_t count) const;

  // -- job metadata --------------------------------------------------------

  bool writeState(const std::string& id, const JobState& st) const;
  bool readState(const std::string& id, JobState& out) const;

  /// Append one completion line to journal.jsonl ({"shard": N}).
  bool journalShard(const std::string& id, std::size_t index) const;

  /// journaled[i] == true iff journal.jsonl has a line for shard i.
  std::vector<bool> journaledShards(const std::string& id,
                                    std::size_t count) const;

  /// Append a shard's captured JSONL events to the job's heartbeat feed.
  bool appendEvents(const std::string& id, const std::string& jsonl) const;

  // -- primitives ----------------------------------------------------------

  /// Write-to-temp + same-directory rename; false on any I/O failure.
  static bool writeFileAtomic(const std::string& path,
                              const std::string& content);
  static bool readFile(const std::string& path, std::string& out);
  static bool appendFile(const std::string& path, const std::string& chunk);

 private:
  std::string root_;
};

}  // namespace confail::serve
