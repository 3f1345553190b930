#include "confail/serve/worker.hpp"

#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <exception>
#include <string_view>

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
                     int eventsFd, std::string& header, std::string& error) {
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
      std::uint64_t bytes = 0;
      if (CampaignStore::writeEvents(eventsFd, run, bytes)) {
        header = CampaignStore::shardToJson(result, bytes);
      } else {
        error = "cannot write the shard's events";
        rc = 3;
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
    rc = 3;
  }
#if defined(__GLIBC__)
  // The shard's run is freed: give the pages back, so a worker that lives
  // on does not keep its largest shard's heap resident.
  ::malloc_trim(0);
#endif
  return rc;
}

int openEventsBuffer() {
  return ::memfd_create("confail-shard-events", MFD_CLOEXEC);
}

int writeShard(const std::string& jobPath, std::size_t index,
               const std::string& outPath, std::string& error) {
  const int events = openEventsBuffer();
  if (events < 0) {
    error = "cannot open a scratch buffer for the shard's events";
    return 3;
  }
  std::string header;
  int rc = ShardWorker().run(jobPath, index, events, header, error);
  if (rc == 0 && !CampaignStore::writeShardFile(outPath, header, events)) {
    error = "cannot write " + outPath;
    rc = 3;
  }
  ::close(events);
  return rc;
}

bool parseReply(const std::string& line, std::size_t shard, bool& ok,
                std::string& header) {
  const std::string prefix = std::to_string(shard) + " ";
  if (line.compare(0, prefix.size(), prefix) != 0) return false;
  const std::string_view rest = std::string_view(line).substr(prefix.size());
  if (rest == "failed") {
    ok = false;
    return true;
  }
  if (rest.substr(0, 3) != "ok ") return false;
  ok = true;
  header = rest.substr(3);
  return true;
}

namespace {

/// Write all of `line` to `fd`: send(2) without SIGPIPE on a socket (a
/// closed peer is an error, not a signal), write(2) on anything else.
bool writeLine(int fd, const std::string& line) {
  bool socket = true;
  for (std::size_t done = 0; done < line.size();) {
    ssize_t n = -1;
    if (socket) {
      n = ::send(fd, line.data() + done, line.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        socket = false;
        continue;
      }
    } else {
      n = ::write(fd, line.data() + done, line.size() - done);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
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

int serveShardRequests(const std::string& root, int in, int out,
                       int eventsFd) {
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
    std::string header;
    std::string error;
    const int rc = worker.run(store.jobDir(id) + "/job.json", shard,
                              eventsFd, header, error);
    if (rc != 0) {
      std::fprintf(stderr, "confail worker: shard %zu of %s: %s\n", shard,
                   id.c_str(), error.c_str());
    }
    const std::string reply =
        std::to_string(shard) + (rc == 0 ? " ok " + header + "\n"
                                         : std::string(" failed\n"));
    if (!writeLine(out, reply)) return 3;
  }
}

}  // namespace confail::serve
