#include "confail/serve/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <exception>

#include "confail/events/trace.hpp"
#include "confail/serve/store.hpp"

namespace confail::serve {

int ShardWorker::load(const std::string& jobPath, std::string& error) {
  if (jobPath == jobPath_) return 0;
  jobPath_.clear();
  std::string text;
  if (!CampaignStore::readFile(jobPath, text)) {
    error = "cannot read " + jobPath;
    return 3;
  }
  if (!inject::JobSpec::parse(text, spec_, error)) return 2;
  shards_ = inject::expandShards(spec_);  // throws on an invalid spec
  jobPath_ = jobPath;
  return 0;
}

int ShardWorker::run(const std::string& jobPath, std::size_t index,
                     const std::string& outPath, std::string& error) {
  int rc = 0;
  try {
    rc = load(jobPath, error);
    if (rc == 0 && index >= shards_.size()) {
      error = "shard " + std::to_string(index) + " out of range (job has " +
              std::to_string(shards_.size()) + ")";
      rc = 2;
    }
    if (rc == 0) {
      events::Trace run;
      const inject::ShardResult result =
          inject::runShard(spec_, shards_[index], {}, run);
      if (!CampaignStore::writeShardFile(outPath, result, &run)) {
        error = "cannot write " + outPath;
        rc = 3;
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
    rc = 3;
  }
#if defined(__GLIBC__)
  // The shard's run and events are freed: give the pages back, so a worker
  // that lives on does not keep its largest shard's heap resident.
  ::malloc_trim(0);
#endif
  return rc;
}

namespace {

/// Write one reply line to `fd`: send(2) without SIGPIPE on a socket (a
/// closed peer is an error, not a signal), write(2) on anything else.  A
/// reply is far below any socket or pipe buffer, so it goes whole or not
/// at all.
bool writeLine(int fd, const std::string& line) {
  ssize_t n = -1;
  do {
    n = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && errno == ENOTSOCK) {
    do {
      n = ::write(fd, line.data(), line.size());
    } while (n < 0 && errno == EINTR);
  }
  return n == static_cast<ssize_t>(line.size());
}

/// Split a "<job-id> <shard>" request; false when it is not one.
bool parseRequest(const std::string& line, std::string& id,
                  std::size_t& shard) {
  const std::size_t space = line.find(' ');
  if (space == 0 || space == std::string::npos) return false;
  const char* first = line.data() + space + 1;
  const char* last = line.data() + line.size();
  const auto [end, ec] = std::from_chars(first, last, shard);
  if (ec != std::errc() || end != last || first == last) return false;
  id = line.substr(0, space);
  return id.find('/') == std::string::npos && id != "." && id != "..";
}

}  // namespace

int serveShardRequests(const std::string& root, int in, int out) {
  const CampaignStore store(root);
  ShardWorker worker;
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const std::size_t eol = buffer.find('\n');
    if (eol == std::string::npos) {
      if (buffer.size() > sizeof chunk) {  // no request is this long
        std::fprintf(stderr, "confail worker: malformed request\n");
        return 2;
      }
      const ssize_t n = ::read(in, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return 0;  // end of input (or a broken one): done
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string line = buffer.substr(0, eol);
    buffer.erase(0, eol + 1);
    std::string id;
    std::size_t shard = 0;
    if (!parseRequest(line, id, shard)) {
      std::fprintf(stderr, "confail worker: malformed request '%s'\n",
                   line.c_str());
      return 2;
    }
    std::string error;
    const int rc = worker.run(store.jobDir(id) + "/job.json", shard,
                              store.shardPath(id, shard), error);
    if (rc != 0) {
      std::fprintf(stderr, "confail worker: shard %zu of %s: %s\n", shard,
                   id.c_str(), error.c_str());
    }
    if (!writeLine(out, std::to_string(shard) + (rc == 0 ? " ok\n"
                                                         : " failed\n"))) {
      return 3;
    }
  }
}

}  // namespace confail::serve
