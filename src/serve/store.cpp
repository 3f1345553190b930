#include "confail/serve/store.hpp"

#include <fcntl.h>
#include <sys/sendfile.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string_view>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "confail/obs/json.hpp"
#include "confail/obs/trace_export.hpp"

namespace confail::serve {

namespace fs = std::filesystem;

using inject::JobSpec;
using inject::ShardFinding;
using inject::ShardResult;

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

bool ensureDir(const fs::path& p) {
  std::error_code ec;
  fs::create_directories(p, ec);
  return !ec && fs::is_directory(p, ec);
}

std::vector<std::string> sortedEntries(const fs::path& dir, bool dirsOnly,
                                       const char* stripSuffix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (dirsOnly != e.is_directory()) continue;
    std::string name = e.path().filename().string();
    if (stripSuffix != nullptr) {
      const std::string suffix = stripSuffix;
      if (name.size() <= suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      name.erase(name.size() - suffix.size());
    }
    out.push_back(std::move(name));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t countOf(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.get(key);
  // 2^64 and up (and NaN) have no uint64 value: converting them is UB.
  return (v != nullptr && v->isNumber() && v->number >= 0 &&
          v->number < 18446744073709551616.0)
             ? static_cast<std::uint64_t>(v->number)
             : 0;
}

std::string stringOf(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.get(key);
  return v != nullptr ? v->string : std::string();
}

bool boolOf(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.get(key);
  return v != nullptr && v->boolean;
}

/// `doc[key]` as an exact uint64; false when absent or not one.
bool exactCount(const obs::JsonValue& doc, const char* key,
                std::uint64_t& out) {
  const obs::JsonValue* v = doc.get(key);
  if (v == nullptr || !v->isNumber() || v->number < 0 ||
      v->number >= 18446744073709551616.0 ||
      v->number != std::floor(v->number)) {
    return false;
  }
  out = static_cast<std::uint64_t>(v->number);
  return true;
}

/// JsonWriter's pretty print on one line: every newline in its output is
/// structural (strings escape theirs), so each newline and the indent
/// after it become one space.
std::string oneLine(const std::string& doc) {
  std::string out;
  out.reserve(doc.size());
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] != '\n') {
      out += doc[i];
      continue;
    }
    out += ' ';
    while (i + 1 < doc.size() && doc[i + 1] == ' ') ++i;
  }
  return out;
}

/// The one confail.shard.v3 serializer.
std::string renderHeader(const ShardResult& r, std::uint64_t eventsBytes) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.shard.v3");
  w.field("index", static_cast<std::uint64_t>(r.spec.index));
  w.field("control", r.spec.control);
  w.field("scenario", r.spec.scenario);
  if (!r.spec.control) {
    w.field("class", taxonomy::failureClassName(r.spec.cls));
  }
  w.field("reduction", inject::reductionName(r.spec.reduction));
  if (r.spec.control) {
    w.key("control_cell");
    w.beginObject();
    w.field("runs", r.control.runs);
    w.field("findings", r.control.findings);
    w.field("failing_runs", r.control.failingRuns);
    w.field("wall_ms", r.control.wallMs);
    w.field("host_concurrency",
            static_cast<std::uint64_t>(r.control.hostConcurrency));
    w.endObject();
  } else {
    w.key("cell");
    w.beginObject();
    w.field("runs", r.cell.runs);
    w.field("deviated_runs", r.cell.deviatedRuns);
    w.field("failing_runs", r.cell.failingRuns);
    w.field("caught", r.cell.caught);
    w.field("classifier_agrees", r.cell.classifierAgrees);
    w.field("wall_ms", r.cell.wallMs);
    w.field("host_concurrency",
            static_cast<std::uint64_t>(r.cell.hostConcurrency));
    w.key("detectors");
    w.beginArray();
    for (const inject::DetectorCell& d : r.cell.detectors) {
      w.beginObject();
      w.field("detector", d.detector);
      w.field("findings", d.findings);
      w.field("hits", d.hits);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.key("findings");
  w.beginArray();
  for (const ShardFinding& f : r.findings) {
    w.beginObject();
    w.field("detector", f.detector);
    w.field("kind", detect::findingKindName(f.finding.kind));
    w.field("message", f.finding.message);
    w.field("thread_id", static_cast<std::uint64_t>(f.finding.thread));
    w.field("thread2_id", static_cast<std::uint64_t>(f.finding.thread2));
    w.field("monitor_id", static_cast<std::uint64_t>(f.finding.monitor));
    w.field("var_id", static_cast<std::uint64_t>(f.finding.var));
    w.field("seq", f.finding.seq);
    w.field("thread", f.thread);
    w.field("thread2", f.thread2);
    w.field("monitor", f.monitor);
    w.field("var", f.var);
    w.endObject();
  }
  w.endArray();
  w.field("events_bytes", eventsBytes);
  w.endObject();
  return oneLine(w.str());
}

/// Write-to-temp + same-directory rename; `write` fills the temp file.
bool writeAtomically(const std::string& path,
                     const std::function<bool(std::FILE*)>& write) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = write(f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !flushed || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool writeAll(std::FILE* f, std::string_view piece) {
  return piece.empty() ||
         std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
}

/// pwrite(2) all of `data` at `offset`, across short writes and signals.
bool pwriteFully(int fd, const char* data, std::size_t size,
                 std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Copy the first `size` bytes of `in` to `out` at `outOffset` inside the
/// kernel (sendfile(2)): no user-space buffer holds them.
bool copyBytes(int in, int out, std::uint64_t outOffset, std::uint64_t size) {
  if (::lseek(out, static_cast<off_t>(outOffset), SEEK_SET) < 0) return false;
  off_t from = 0;
  while (size > 0) {
    const ssize_t n = ::sendfile(out, in, &from, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // I/O failure, or `in` ended early
    size -= static_cast<std::uint64_t>(n);
  }
  return true;
}

/// True when the segment of `fd` is empty or ends in a newline.
bool endsLine(int fd, const CampaignStore::Segment& s) {
  if (s.bytes == 0) return true;
  char last = 0;
  return ::pread(fd, &last, 1,
                 static_cast<off_t>(s.offset + s.bytes - 1)) == 1 &&
         last == '\n';
}

/// Write `line` at `offset` of the file at `path`, creating it.  On failure
/// the file is cut back to `offset`: no partial line stays.
bool writeLineAt(const std::string& path, const std::string& line,
                 std::uint64_t offset) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = pwriteFully(fd, line.data(), line.size(), offset);
  if (!ok) (void)::ftruncate(fd, static_cast<off_t>(offset));
  ::close(fd);
  return ok;
}

/// Cut `path` back to `size` bytes if it is a longer regular file.
bool cutTo(const std::string& path, std::uint64_t size) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
      static_cast<std::uint64_t>(st.st_size) <= size) {
    return true;
  }
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

}  // namespace

// -- CampaignStore ----------------------------------------------------------

CampaignStore::CampaignStore(std::string root) : root_(std::move(root)) {}

bool CampaignStore::init() const {
  return ensureDir(fs::path(root_) / "queue") &&
         ensureDir(fs::path(root_) / "jobs") &&
         ensureDir(fs::path(root_) / "ctl");
}

std::string CampaignStore::jobIdFor(const JobSpec& spec) {
  std::string label;
  for (char c : spec.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    label += ok ? c : '-';
  }
  if (label.empty()) label = "job";
  return label + "-" + hex16(fnv1a(spec.toJson()));
}

std::string CampaignStore::submit(const JobSpec& spec) const {
  if (!init()) return "";
  const std::string id = jobIdFor(spec);
  // Already adopted: the daemon owns it (or finished it); nothing to queue.
  std::error_code ec;
  if (fs::exists(fs::path(jobDir(id)) / "job.json", ec)) return id;
  const std::string path =
      (fs::path(root_) / "queue" / (id + ".json")).string();
  if (!writeFileAtomic(path, spec.toJson() + "\n")) return "";
  return id;
}

bool CampaignStore::requestDrain() const {
  if (!init()) return false;
  return writeFileAtomic((fs::path(root_) / "ctl" / "drain").string(),
                         "drain\n");
}

bool CampaignStore::drainRequested() const {
  std::error_code ec;
  return fs::exists(fs::path(root_) / "ctl" / "drain", ec);
}

void CampaignStore::clearDrain() const {
  std::error_code ec;
  fs::remove(fs::path(root_) / "ctl" / "drain", ec);
}

std::vector<std::string> CampaignStore::scanQueue() const {
  return sortedEntries(fs::path(root_) / "queue", false, ".json");
}

std::vector<std::string> CampaignStore::listJobs() const {
  return sortedEntries(fs::path(root_) / "jobs", true, nullptr);
}

bool CampaignStore::adoptJob(const std::string& id, JobSpec& out,
                             std::string& error) const {
  const fs::path queued = fs::path(root_) / "queue" / (id + ".json");
  std::string text;
  if (!readFile(queued.string(), text)) {
    error = "no queued spec for job '" + id + "'";
    return false;
  }
  if (!JobSpec::parse(text, out, error)) return false;
  const std::string problem = out.validate();
  if (!problem.empty()) {
    error = problem;
    return false;
  }
  if (!ensureDir(jobDir(id))) {
    error = "cannot create job directory for '" + id + "'";
    return false;
  }
  if (!writeFileAtomic((fs::path(jobDir(id)) / "job.json").string(),
                       out.toJson() + "\n")) {
    error = "cannot persist job spec for '" + id + "'";
    return false;
  }
  std::error_code ec;
  fs::remove(queued, ec);  // consumed; a leftover is re-adopted harmlessly
  return true;
}

bool CampaignStore::loadJob(const std::string& id, JobSpec& out,
                            std::string& error) const {
  std::string text;
  if (!readFile((fs::path(jobDir(id)) / "job.json").string(), text)) {
    error = "job '" + id + "' has no job.json";
    return false;
  }
  return JobSpec::parse(text, out, error);
}

void CampaignStore::removeQueued(const std::string& id) const {
  std::error_code ec;
  fs::remove(fs::path(root_) / "queue" / (id + ".json"), ec);
}

std::string CampaignStore::jobDir(const std::string& id) const {
  return (fs::path(root_) / "jobs" / id).string();
}

std::string CampaignStore::journalPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "journal.jsonl").string();
}

std::string CampaignStore::eventsPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "events.jsonl").string();
}

std::string CampaignStore::findingsPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "findings.json").string();
}

std::string CampaignStore::sarifPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "findings.sarif").string();
}

std::string CampaignStore::matrixPath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "matrix.json").string();
}

// -- shard headers ----------------------------------------------------------

namespace {

/// Fill `out` and `eventsBytes` from a parsed confail.shard.v3 header.
bool headerFromDoc(const obs::JsonValue& doc, ShardResult& out,
                   std::uint64_t& eventsBytes, std::string& error) {
  if (stringOf(doc, "schema") != "confail.shard.v3") {
    error = "missing or unsupported schema (want confail.shard.v3)";
    return false;
  }
  std::uint64_t bytes = 0;
  if (!exactCount(doc, "events_bytes", bytes)) {
    error = "shard header lacks a byte count for its events";
    return false;
  }
  std::uint64_t index = 0;
  if (!exactCount(doc, "index", index)) {
    error = "shard header lacks its index";
    return false;
  }
  ShardResult r;
  r.spec.index = static_cast<std::size_t>(index);
  r.spec.control = boolOf(doc, "control");
  r.spec.scenario = stringOf(doc, "scenario");
  if (!taxonomy::parseFailureClass(stringOf(doc, "class"), r.spec.cls) &&
      !r.spec.control) {
    error = "shard has no parseable class";
    return false;
  }
  if (!inject::parseReduction(stringOf(doc, "reduction"), r.spec.reduction)) {
    error = "shard has no parseable reduction";
    return false;
  }
  if (r.spec.control) {
    const obs::JsonValue* c = doc.get("control_cell");
    if (c == nullptr || !c->isObject()) {
      error = "control shard lacks control_cell";
      return false;
    }
    r.control.scenario = r.spec.scenario;
    r.control.reduction = r.spec.reduction;
    r.control.runs = countOf(*c, "runs");
    r.control.findings = countOf(*c, "findings");
    r.control.failingRuns = countOf(*c, "failing_runs");
    const obs::JsonValue* wall = c->get("wall_ms");
    r.control.wallMs = (wall != nullptr && wall->isNumber()) ? wall->number
                                                             : 0.0;
    r.control.hostConcurrency =
        static_cast<std::uint32_t>(countOf(*c, "host_concurrency"));
  } else {
    const obs::JsonValue* c = doc.get("cell");
    if (c == nullptr || !c->isObject()) {
      error = "injection shard lacks cell";
      return false;
    }
    r.cell.scenario = r.spec.scenario;
    r.cell.cls = r.spec.cls;
    r.cell.reduction = r.spec.reduction;
    r.cell.runs = countOf(*c, "runs");
    r.cell.deviatedRuns = countOf(*c, "deviated_runs");
    r.cell.failingRuns = countOf(*c, "failing_runs");
    r.cell.caught = boolOf(*c, "caught");
    r.cell.classifierAgrees = boolOf(*c, "classifier_agrees");
    const obs::JsonValue* wall = c->get("wall_ms");
    r.cell.wallMs = (wall != nullptr && wall->isNumber()) ? wall->number
                                                          : 0.0;
    r.cell.hostConcurrency =
        static_cast<std::uint32_t>(countOf(*c, "host_concurrency"));
    if (const obs::JsonValue* ds = c->get("detectors")) {
      for (const obs::JsonValue& d : ds->array) {
        inject::DetectorCell dc;
        dc.detector = stringOf(d, "detector");
        dc.findings = countOf(d, "findings");
        dc.hits = countOf(d, "hits");
        r.cell.detectors.push_back(std::move(dc));
      }
    }
    // The plan is not serialized: it is a pure function of (class,
    // scenario), so reconstruct it when the scenario is still known.
    const auto* sc = components::scenarios::find(r.spec.scenario);
    if (sc != nullptr) r.cell.plan = inject::defaultPlanFor(r.spec.cls, *sc);
  }
  if (const obs::JsonValue* fs_ = doc.get("findings")) {
    if (!fs_->isArray()) {
      error = "findings must be an array";
      return false;
    }
    for (const obs::JsonValue& f : fs_->array) {
      ShardFinding sf;
      sf.detector = stringOf(f, "detector");
      if (!detect::parseFindingKind(stringOf(f, "kind"), sf.finding.kind)) {
        error = "finding has no parseable kind";
        return false;
      }
      sf.finding.message = stringOf(f, "message");
      sf.finding.thread =
          static_cast<events::ThreadId>(countOf(f, "thread_id"));
      sf.finding.thread2 =
          static_cast<events::ThreadId>(countOf(f, "thread2_id"));
      sf.finding.monitor =
          static_cast<events::MonitorId>(countOf(f, "monitor_id"));
      sf.finding.var = static_cast<events::VarId>(countOf(f, "var_id"));
      sf.finding.seq = countOf(f, "seq");
      sf.thread = stringOf(f, "thread");
      sf.thread2 = stringOf(f, "thread2");
      sf.monitor = stringOf(f, "monitor");
      sf.var = stringOf(f, "var");
      r.findings.push_back(std::move(sf));
    }
  }
  out = std::move(r);
  eventsBytes = bytes;
  error.clear();
  return true;
}

bool parseDoc(const std::string& json, obs::JsonValue& doc,
              std::string& error) {
  try {
    doc = obs::parseJson(json);
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
  return true;
}

/// A parsed journal line as a landing: a shard header plus events_offset.
bool landingFromDoc(const obs::JsonValue& doc, CampaignStore::Landing& out,
                    std::string& error) {
  CampaignStore::Landing l;
  if (!exactCount(doc, "events_offset", l.segment.offset)) {
    error = "journal line lacks the offset of its events";
    return false;
  }
  if (!headerFromDoc(doc, l.result, l.segment.bytes, error)) return false;
  out = std::move(l);
  return true;
}

constexpr const char* kShardFailedSchema = "confail.shard_failed.v1";

/// True when a parsed journal line is a failure line: its schema and its
/// shard's index, no other member (in particular no segment).
bool failureFromDoc(const obs::JsonValue& doc, std::uint64_t& index) {
  return doc.isObject() && doc.object.size() == 2 &&
         stringOf(doc, "schema") == kShardFailedSchema &&
         exactCount(doc, "index", index);
}

}  // namespace

std::string CampaignStore::shardToJson(const ShardResult& r,
                                       std::uint64_t eventsBytes) {
  return renderHeader(r, eventsBytes);
}

bool CampaignStore::shardFromJson(const std::string& json, ShardResult& out,
                                  std::uint64_t& eventsBytes,
                                  std::string& error) {
  obs::JsonValue doc;
  if (!parseDoc(json, doc, error)) return false;
  if (doc.get("events_offset") != nullptr) {
    error = "a shard header names no feed offset";
    return false;
  }
  return headerFromDoc(doc, out, eventsBytes, error);
}

bool CampaignStore::writeEvents(int fd, const events::Trace& run,
                                std::uint64_t& bytes) {
  bytes = 0;
  if (::ftruncate(fd, 0) != 0) return false;
  // Lines are gathered in one buffer handed on in ~64 KB pieces.
  constexpr std::size_t kPieceBytes = 64 * 1024;
  std::string piece;
  bool ok = true;
  const auto flush = [&] {
    ok = ok && pwriteFully(fd, piece.data(), piece.size(), bytes);
    bytes += piece.size();
    piece.clear();
  };
  obs::forEachJsonlLine(run, [&](const std::string& line) {
    piece += line;
    piece += '\n';
    if (piece.size() >= kPieceBytes) flush();
  });
  flush();
  return ok;
}

bool CampaignStore::writeShardFile(const std::string& path,
                                   const std::string& header, int eventsFd) {
  struct stat st {};
  if (::fstat(eventsFd, &st) != 0) return false;
  return writeAtomically(path, [&](std::FILE* f) {
    return writeAll(f, header) && writeAll(f, "\n") && std::fflush(f) == 0 &&
           copyBytes(eventsFd, ::fileno(f), header.size() + 1,
                     static_cast<std::uint64_t>(st.st_size));
  });
}

// -- the journal ------------------------------------------------------------

bool CampaignStore::landingFromJson(const std::string& line, Landing& out,
                                    std::string& error) {
  obs::JsonValue doc;
  return parseDoc(line, doc, error) && landingFromDoc(doc, out, error);
}

CampaignStore::Journal CampaignStore::readJournal(const std::string& id,
                                                  std::size_t count) const {
  Journal j;
  // Only a regular file is read: a device in the journal's place (one that
  // never ends, say) commits nothing.
  struct stat st {};
  std::string text;
  if (::stat(journalPath(id).c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
      !readFile(journalPath(id), text)) {
    return j;
  }
  const int feed = ::open(eventsPath(id).c_str(), O_RDONLY | O_CLOEXEC);
  const std::uint64_t feedSize =
      feed >= 0 && ::fstat(feed, &st) == 0 && S_ISREG(st.st_mode)
          ? static_cast<std::uint64_t>(st.st_size)
          : 0;
  std::unordered_set<std::size_t> settled;
  // A line without its newline is torn: it commits nothing.
  for (std::size_t begin = 0, eol;
       (eol = text.find('\n', begin)) != std::string::npos; begin = eol + 1) {
    obs::JsonValue doc;
    std::string error;
    if (!parseDoc(text.substr(begin, eol - begin), doc, error)) break;
    std::uint64_t failed = 0;
    if (failureFromDoc(doc, failed)) {
      if (failed >= count || !settled.insert(failed).second) break;
      j.failed.push_back(static_cast<std::size_t>(failed));
      j.end.journal = eol + 1;
      continue;
    }
    Landing l;
    if (!landingFromDoc(doc, l, error)) break;
    const Segment& s = l.segment;
    const std::size_t index = l.result.spec.index;
    if (index >= count || !settled.insert(index).second ||
        s.offset != j.end.feed || s.bytes > feedSize - s.offset ||
        !endsLine(feed, s)) {
      break;
    }
    j.end.feed += s.bytes;
    j.end.journal = eol + 1;
    j.landings.push_back(std::move(l));
  }
  if (feed >= 0) ::close(feed);
  return j;
}

bool CampaignStore::truncateJournal(const std::string& id,
                                    const JournalEnd& end) const {
  return cutTo(journalPath(id), end.journal) && cutTo(eventsPath(id), end.feed);
}

bool CampaignStore::landShard(const std::string& id,
                              const std::string& header, int eventsFd,
                              std::uint64_t eventsBytes,
                              JournalEnd& end) const {
  struct stat st {};
  const std::size_t brace = header.rfind('}');
  if (::fstat(eventsFd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) != eventsBytes ||
      !endsLine(eventsFd, {0, eventsBytes}) || brace == std::string::npos) {
    return false;
  }
  // The header's last member gains a sibling: where its segment starts.
  std::string line = header.substr(0, brace);
  while (!line.empty() && line.back() == ' ') line.pop_back();
  line += ", \"events_offset\": " + std::to_string(end.feed) + " }\n";
  const int feed =
      ::open(eventsPath(id).c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (feed < 0) return false;
  const bool ok = copyBytes(eventsFd, feed, end.feed, eventsBytes) &&
                  writeLineAt(journalPath(id), line, end.journal);
  // Leave no partial segment behind.
  if (!ok) (void)::ftruncate(feed, static_cast<off_t>(end.feed));
  ::close(feed);
  if (ok) {
    end.feed += eventsBytes;
    end.journal += line.size();
  }
  return ok;
}

bool CampaignStore::journalFailure(const std::string& id, std::size_t index,
                                   JournalEnd& end) const {
  const std::string line = std::string("{ \"schema\": \"") +
                           kShardFailedSchema + "\", \"index\": " +
                           std::to_string(index) + " }\n";
  if (!writeLineAt(journalPath(id), line, end.journal)) return false;
  end.journal += line.size();
  return true;
}

bool CampaignStore::readSegment(const std::string& id, const Segment& segment,
                                std::string& out) const {
  std::string bytes(static_cast<std::size_t>(segment.bytes), '\0');
  const int feed = ::open(eventsPath(id).c_str(), O_RDONLY | O_CLOEXEC);
  if (feed < 0) return false;
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::pread(feed, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(segment.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(feed);
  if (got != bytes.size()) return false;
  out = std::move(bytes);
  return true;
}

bool CampaignStore::readShard(const std::string& id, std::size_t index,
                              ShardResult& out) const {
  Journal j = readJournal(id);
  for (Landing& l : j.landings) {
    if (l.result.spec.index != index) continue;
    if (!readSegment(id, l.segment, l.result.eventsJsonl)) return false;
    out = std::move(l.result);
    return true;
  }
  return false;
}

// -- status -----------------------------------------------------------------

bool CampaignStore::status(const std::string& id, JobState& out) const {
  out = JobState{};
  out.id = id;
  std::error_code ec;
  const bool queued =
      fs::exists(fs::path(root_) / "queue" / (id + ".json"), ec);
  JobSpec spec;
  std::string error;
  std::vector<inject::ShardSpec> shards;
  bool loaded = loadJob(id, spec, error);
  try {
    if (loaded) shards = inject::expandShards(spec);
  } catch (const Error&) {
    loaded = false;
  }
  if (!loaded) {
    // adoptJob writes job.json before it removes the queue file, so an
    // adoption in progress reads as queued, never as refused.
    if (queued) {
      out.status = "queued";
      return true;
    }
    if (!fs::is_directory(jobDir(id), ec)) return false;
    out.status = "failed";
    return true;
  }
  out.name = spec.name;
  out.shardsTotal = shards.size();
  // The merge writes matrix.json last: all three exist only once it ended.
  std::string findings;
  obs::JsonValue doc;
  if (fs::is_regular_file(sarifPath(id), ec) &&
      fs::is_regular_file(matrixPath(id), ec) &&
      readFile(findingsPath(id), findings) &&
      parseDoc(findings, doc, error)) {
    out.status = "completed";
    out.shardsDone = out.shardsTotal;
    out.findings = countOf(doc, "count");
    return true;
  }
  const Journal journal = readJournal(id, shards.size());
  out.shardsDone = journal.landings.size();
  out.shardsFailed = journal.failed.size();
  out.status = out.shardsFailed > 0 &&
                       out.shardsDone + out.shardsFailed == out.shardsTotal
                   ? "failed"
                   : "running";
  return true;
}

// -- primitives -------------------------------------------------------------

bool CampaignStore::writeFileAtomic(const std::string& path,
                                    const std::string& content) {
  return writeAtomically(
      path, [&content](std::FILE* f) { return writeAll(f, content); });
}

bool CampaignStore::readFile(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!ec) out.reserve(static_cast<std::size_t>(size));
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool CampaignStore::appendFile(const std::string& path,
                               const std::string& chunk) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const bool wrote = writeAll(f, chunk);
  const bool flushed = std::fflush(f) == 0;
  return (std::fclose(f) == 0) && wrote && flushed;
}

}  // namespace confail::serve
