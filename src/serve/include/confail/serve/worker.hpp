// ShardWorker: the code that runs campaign shards, shared by every kind of
// `confail serve` worker and by the one-shot `confail worker` verb.
//
// A worker runs one shard per request: it loads the job spec, runs the
// shard with its events captured (inject::runShard), and writes the result
// as the sidecar + header pair (CampaignStore::writeShardFile).  It keeps
// the parsed spec and the expanded shard list of the job it served last,
// so a run of requests for one job parses job.json once, and it returns
// freed heap to the system after each shard (malloc_trim), so a worker
// that stays alive holds no more than one shard's high-water mark.
//
// The persistent worker (serveShardRequests) speaks a line protocol over
// a byte stream, one request at a time:
//
//   request  "<job-id> <shard>\n"   run shard <shard> of root/jobs/<job-id>
//                                   into its spool slot
//   reply    "<shard> ok\n"         the shard's pair of files has landed
//            "<shard> failed\n"     it has not (bad spec, shard out of
//                                   range, runShard threw, write failed)
//
// It serves until its input ends.  The daemon runs it on a thread per pool
// slot (`--in-process`) or as `confail worker --root DIR` on stdin/stdout,
// and writes a request only to a worker that has replied to the last one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "confail/inject/job_spec.hpp"

namespace confail::serve {

class ShardWorker {
 public:
  /// Run shard `index` of the confail.job.v1 spec at `jobPath` and write
  /// it with its header at `outPath` (its sidecar beside it).  Returns the
  /// CLI exit code: 0 written, 2 a spec that does not parse or an index
  /// out of range, 3 an unreadable spec, a spec that does not expand, or
  /// an I/O failure; `error` says what went wrong.
  int run(const std::string& jobPath, std::size_t index,
          const std::string& outPath, std::string& error);

 private:
  /// Parse and expand the spec at `jobPath` unless it is the cached one.
  int load(const std::string& jobPath, std::string& error);

  std::string jobPath_;  ///< the cached job; "" = none
  inject::JobSpec spec_;
  std::vector<inject::ShardSpec> shards_;
};

/// The persistent worker loop over spool `root`: read requests from `in`,
/// reply on `out` (the same fd is fine), return at end of input.  Returns
/// 0 at a clean end of input, 2 on a malformed request, 3 when a reply
/// cannot be written.
int serveShardRequests(const std::string& root, int in, int out);

}  // namespace confail::serve
