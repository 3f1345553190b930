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
//       events.jsonl             heartbeat feed: every landed shard's
//                                captured run as raw JSONL (obs::toJsonl
//                                bytes), one contiguous segment per shard
//                                (`confail ingest` consumes this directly)
//       journal.jsonl            append-only log, one line per settled
//                                shard: a landed shard's confail.shard.v3
//                                header plus `events_offset`, where its
//                                segment starts in events.jsonl
//                                (`events_bytes` is the segment's size), or
//                                a confail.shard_failed.v1 line for a shard
//                                that failed for good
//       findings.json            merged confail.findings.v1 (on completion)
//       findings.sarif           merged SARIF 2.1.0
//       matrix.json              merged confail.injection.v1 matrix
//
// A job directory holds these six files and no more, whatever its shard
// count.  Landing a shard appends its segment to events.jsonl, then its
// line to journal.jsonl: the journal line is the commit point.  A shard is
// *settled* iff a line for it is in the journal's valid prefix: whole
// lines, each for a shard in range that no earlier line settled.  A landing
// line parses as confail.shard.v3 with an offset, its segment starting
// where the previous one ended and lying inside the feed, ending in a
// newline; a failure line (`{ "schema": "confail.shard_failed.v1",
// "index": N }`, no other member) names no segment.  Reading stops at the
// first line that breaks the rule (a torn last line, or the `{"shard": N}`
// lines of an older spool, which therefore re-runs), and adoption cuts both
// files back to the prefix: feed bytes past the last journaled segment (a
// daemon killed between the copy and the line) are truncated away, so every
// landed shard's events appear in the feed exactly once.  A resumed job
// runs only the shards the prefix does not settle.
//
// No file holds a job's status: status() derives it from these.  A
// submission refused at adoption leaves an empty job directory.
//
// The other documents land via write-to-temp + rename in the same
// directory, so readers (including a daemon resuming after SIGKILL) only
// ever see absent or complete documents.
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

/// Progress summary of one job, derived from its files
/// (CampaignStore::status).
struct JobState {
  std::string id;
  std::string name;
  std::string status;  ///< "queued" | "running" | "completed" | "failed"
  std::uint64_t shardsTotal = 0;
  std::uint64_t shardsDone = 0;
  std::uint64_t shardsFailed = 0;
  std::uint64_t findings = 0;  ///< unique findings after the merge
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
  std::string journalPath(const std::string& id) const;
  std::string eventsPath(const std::string& id) const;
  std::string findingsPath(const std::string& id) const;
  std::string sarifPath(const std::string& id) const;
  std::string matrixPath(const std::string& id) const;

  // -- shard headers -------------------------------------------------------

  /// Serialize one shard header on one line (schema confail.shard.v3):
  /// every field of the result but its events, and events_bytes, the size
  /// of its captured run.  The injection plan is not on the wire: parsing
  /// reconstructs it with defaultPlanFor, which is deterministic in
  /// (class, scenario).
  static std::string shardToJson(const inject::ShardResult& r,
                                 std::uint64_t eventsBytes);
  /// Parse a shard header (a worker's reply, a shard file's first line).
  /// out.eventsJsonl stays empty; `eventsBytes` receives the events' size.
  /// A header that already names an events_offset is rejected.
  static bool shardFromJson(const std::string& json, inject::ShardResult& out,
                            std::uint64_t& eventsBytes, std::string& error);

  /// Stream `run`'s JSONL (obs::toJsonl bytes, one event line at a time,
  /// never the whole payload as one string) into `fd` from offset 0, after
  /// truncating it: a scratch buffer reused for every shard.  `bytes`
  /// receives the size written.
  static bool writeEvents(int fd, const events::Trace& run,
                          std::uint64_t& bytes);

  /// Write the one-file form of a shard at `path` (write-to-temp + rename):
  /// `header`, a newline, then everything in `eventsFd` (`confail worker
  /// --out`).
  static bool writeShardFile(const std::string& path, const std::string& header,
                             int eventsFd);

  // -- the journal ---------------------------------------------------------

  /// One shard's bytes in events.jsonl.
  struct Segment {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };

  /// One landed shard, as its journal line records it.
  struct Landing {
    inject::ShardResult result;  ///< without its events
    Segment segment;
  };

  /// Where the next landing goes: the end of the journal's valid prefix
  /// and of the last segment it commits.
  struct JournalEnd {
    std::uint64_t journal = 0;
    std::uint64_t feed = 0;
  };

  /// The journal's valid prefix (see the layout comment above).
  struct Journal {
    std::vector<Landing> landings;    ///< in landing order
    std::vector<std::size_t> failed;  ///< shards failed for good
    JournalEnd end;
  };

  /// Parse one journal line (without its newline): a shard header plus
  /// events_offset.  Checks the line alone, not its place in the feed.
  static bool landingFromJson(const std::string& line, Landing& out,
                              std::string& error);

  /// Read job `id`'s journal up to the first line that does not settle a
  /// shard: shard indexes must be below `count`.
  Journal readJournal(const std::string& id,
                      std::size_t count = static_cast<std::size_t>(-1)) const;

  /// Cut journal.jsonl and events.jsonl back to `end` where they are
  /// longer: a torn last line and feed bytes no line commits go.  False
  /// when a file that needs cutting cannot be cut.
  bool truncateJournal(const std::string& id, const JournalEnd& end) const;

  /// Land one shard of job `id`: copy the `eventsBytes` bytes of `eventsFd`
  /// (from offset 0; the fd must hold exactly that many, ending in a
  /// newline) onto events.jsonl at end.feed, then append `header` with the
  /// segment's offset as the shard's line at end.journal.  The bytes are
  /// copied by the kernel, never held as a string.  Only a whole landing
  /// counts: on any failure both files are cut back to `end` and false is
  /// returned; on success `end` moves past the new segment and line.
  bool landShard(const std::string& id, const std::string& header,
                 int eventsFd, std::uint64_t eventsBytes,
                 JournalEnd& end) const;

  /// Commit shard `index` of job `id` as failed for good: append its
  /// failure line at end.journal.  On failure the journal is cut back to
  /// `end` and false is returned (the shard then runs again on resume); on
  /// success end.journal moves past the line.
  bool journalFailure(const std::string& id, std::size_t index,
                      JournalEnd& end) const;

  /// Read one segment of job `id`'s feed into `out`.
  bool readSegment(const std::string& id, const Segment& segment,
                   std::string& out) const;

  /// True when shard `index` has landed: fills `out` from its journal line
  /// and out.eventsJsonl from its feed segment.  It reads the whole
  /// journal: a reader of every shard calls readJournal once and
  /// readSegment per shard instead.
  bool readShard(const std::string& id, std::size_t index,
                 inject::ShardResult& out) const;

  // -- status --------------------------------------------------------------

  /// Derive job `id`'s status from its files; false when the store has no
  /// trace of it.  In order:
  ///   queued     queue/<id>.json exists and job.json does not load;
  ///   failed     the job directory has no job.json that loads and
  ///              expands (refused at adoption);
  ///   completed  findings.json, findings.sarif and matrix.json all exist
  ///              (`findings` is findings.json's count); the journal is
  ///              not read;
  ///   failed     the journal's valid prefix settles every shard, at least
  ///              one of them as failed;
  ///   running    otherwise, with the prefix's landed and failed counts.
  bool status(const std::string& id, JobState& out) const;

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
