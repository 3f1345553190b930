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
//       shards/shard-NNNN.events.jsonl
//                                a done shard's captured run, raw JSONL
//                                (obs::toJsonl bytes, no JSON escaping)
//       shards/shard-NNNN.json   its confail.shard.v2 header: the result
//                                without events, plus `events_bytes`, the
//                                sidecar's size
//       journal.jsonl            append-only completion log, exactly one
//                                line per landed shard across crashes: the
//                                daemon journals a shard when it reaps it,
//                                and at adoption journals any landed shard
//                                the log lacks (a daemon killed between the
//                                header landing and the journal line)
//       events.jsonl             heartbeat feed: every landed shard's
//                                sidecar appended verbatim (`confail
//                                ingest` consumes this directly)
//       findings.json            merged confail.findings.v1 (on completion)
//       findings.sarif           merged SARIF 2.1.0
//       matrix.json              merged confail.injection.v1 matrix
//
// Every file the store writes lands via write-to-temp + rename in the same
// directory, so readers (including a daemon resuming after SIGKILL) only
// ever see absent or complete documents.  A shard writer removes any old
// header, lands the sidecar, then the header: the header is the commit
// point.  A shard is *landed* iff its header parses as confail.shard.v2
// and its sidecar's size equals the header's `events_bytes`; anything else
// (a v1 document, a sidecar without a header, a header whose sidecar is
// missing, short or long) is not landed, and the shard runs again.
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
  /// Shard `index`'s events sidecar: sidecarPathFor(shardPath(id, index)).
  std::string shardEventsPath(const std::string& id, std::size_t index) const;
  std::string statePath(const std::string& id) const;
  std::string journalPath(const std::string& id) const;
  std::string eventsPath(const std::string& id) const;
  std::string findingsPath(const std::string& id) const;
  std::string sarifPath(const std::string& id) const;
  std::string matrixPath(const std::string& id) const;

  // -- shard persistence ---------------------------------------------------

  /// The events sidecar of the shard header at `headerPath`: the path with
  /// a trailing ".json" replaced by ".events.jsonl" (appended otherwise).
  static std::string sidecarPathFor(const std::string& headerPath);

  /// Serialize one shard header (schema confail.shard.v2): every field of
  /// the result but its events, and events_bytes = r.eventsJsonl.size().
  /// The injection plan is not on the wire: parsing reconstructs it with
  /// defaultPlanFor, which is deterministic in (class, scenario).
  static std::string shardToJson(const inject::ShardResult& r);
  /// Parse a shard header.  out.eventsJsonl stays empty; `eventsBytes`
  /// receives the sidecar size the header commits to.
  static bool shardFromJson(const std::string& json, inject::ShardResult& out,
                            std::uint64_t& eventsBytes, std::string& error);

  /// Write one shard as a sidecar + header pair, header at `path`: remove
  /// the old header, land the events sidecar (sidecarPathFor(path)), then
  /// the header.  Given `run` (the shard's captured run, from the runShard
  /// overload that takes a trace), the sidecar is streamed from it one
  /// event line at a time, so the payload is never held as one string;
  /// otherwise it is r.eventsJsonl.  Either way the sidecar holds
  /// obs::toJsonl(*run) and the header is shardToJson of the result whose
  /// eventsJsonl that is, plus "\n".
  static bool writeShardFile(const std::string& path,
                             const inject::ShardResult& r,
                             const events::Trace* run = nullptr);

  /// writeShardFile into shard r.spec.index of job `id`.
  bool writeShard(const std::string& id, const inject::ShardResult& r,
                  const events::Trace* run = nullptr) const;

  /// True when shard `index` has landed: fills `out` from its header alone
  /// (no events) and `eventsBytes` with its sidecar's size.
  bool readShardHeader(const std::string& id, std::size_t index,
                       inject::ShardResult& out,
                       std::uint64_t& eventsBytes) const;

  /// readShardHeader that also loads the sidecar into out.eventsJsonl.
  bool readShard(const std::string& id, std::size_t index,
                 inject::ShardResult& out) const;

  /// completed[i] == true iff shard i has landed.
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

  /// Append the first `eventsBytes` bytes of shard `index`'s sidecar to
  /// the job's heartbeat feed through one fixed 64 KB buffer (no parse, no
  /// string), ending them with a newline if they lack one.  `appended`
  /// receives the bytes written to the feed.  False when the sidecar is
  /// shorter than `eventsBytes` or on I/O failure.
  bool appendShardEvents(const std::string& id, std::size_t index,
                         std::uint64_t eventsBytes,
                         std::uint64_t& appended) const;

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
