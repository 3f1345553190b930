// ShardWorker: the code that runs campaign shards, shared by every kind of
// `confail serve` worker and by the one-shot `confail worker` verb.
//
// A worker runs one shard per request: it loads the job spec, runs the
// shard with its events captured (inject::runShard), streams the captured
// run as raw JSONL into a scratch buffer (CampaignStore::writeEvents), and
// renders the shard's one-line confail.shard.v3 header.  The scratch
// buffer is one memfd per pool slot, reused for every shard: no shard
// creates a file.  A worker keeps the parsed spec and the expanded shard
// list of the job it served last, so a run of requests for one job parses
// job.json once, and it returns freed heap to the system after each shard
// (malloc_trim), so a worker that stays alive holds no more than one
// shard's high-water mark.
//
// The persistent worker (serveShardRequests) speaks a line protocol over
// a byte stream, one request at a time:
//
//   request  "<job-id> <shard>\n"    run shard <shard> of root/jobs/<job-id>
//   reply    "<shard> ok <header>\n" its events are in the scratch buffer,
//                                    exactly the header's events_bytes
//            "<shard> failed\n"      they are not (bad spec, shard out of
//                                    range, runShard threw, write failed)
//
// The daemon lands an `ok` reply itself (CampaignStore::landShard): the
// worker never touches the job's files.  It serves until its input ends.
// The daemon runs it on a thread per pool slot (`--in-process`) or as
// `confail worker --root DIR` on stdin/stdout with the buffer on fd 3
// (kEventsFd), and writes a request only to a worker that has replied to
// the last one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "confail/inject/job_spec.hpp"

namespace confail::serve {

/// Where a subprocess worker finds its scratch buffer.
inline constexpr int kEventsFd = 3;

class ShardWorker {
 public:
  /// Run shard `index` of the confail.job.v1 spec at `jobPath`: its
  /// captured run replaces the contents of `eventsFd`, and `header`
  /// receives its header line.  Returns the CLI exit code: 0 done, 2 a
  /// spec that does not parse or an index out of range, 3 an unreadable
  /// spec, a spec that does not expand, or an I/O failure; `error` says
  /// what went wrong.
  int run(const std::string& jobPath, std::size_t index, int eventsFd,
          std::string& header, std::string& error);

 private:
  /// Parse and expand the spec at `jobPath` unless it is the cached one.
  int load(const std::string& jobPath, std::string& error);

  std::string jobPath_;  ///< the cached job; "" = none
  inject::JobSpec spec_;
  std::vector<inject::ShardSpec> shards_;
};

/// The one-shot verb: run one shard as ShardWorker::run does, then write
/// its one-file form at `outPath` (CampaignStore::writeShardFile).
int writeShard(const std::string& jobPath, std::size_t index,
               const std::string& outPath, std::string& error);

/// A fresh scratch buffer for one worker's events: an anonymous memory
/// file (memfd) that is never mapped.  -1 on failure.
int openEventsBuffer();

/// Split a reply to a request for `shard`: `ok` with its header, or not.
/// False when `line` (without its newline) is neither reply.
bool parseReply(const std::string& line, std::size_t shard, bool& ok,
                std::string& header);

/// The persistent worker loop over spool `root`: read requests from `in`,
/// run each shard into the scratch buffer `eventsFd`, reply on `out` (the
/// same fd is fine), return at end of input.  Returns 0 at a clean end of
/// input, 2 on a malformed request, 3 when a reply cannot be written.
int serveShardRequests(const std::string& root, int in, int out,
                       int eventsFd);

}  // namespace confail::serve
