#include "confail/serve/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string_view>
#include <system_error>
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

std::string shardFileName(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%04zu.json", index);
  return buf;
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

/// The one confail.shard.v2 serializer: a shard header whose events sidecar
/// holds `eventsBytes` bytes.
std::string renderHeader(const ShardResult& r, std::uint64_t eventsBytes) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.shard.v2");
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
  return w.str();
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

/// write(2) all of `data`, across short writes and signals.
bool writeFully(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// -- JobState ---------------------------------------------------------------

std::string JobState::toJson() const {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.jobstate.v1");
  w.field("id", id);
  w.field("name", name);
  w.field("status", status);
  w.field("shards_total", shardsTotal);
  w.field("shards_done", shardsDone);
  w.field("shards_failed", shardsFailed);
  w.field("findings", findings);
  w.endObject();
  return w.str();
}

bool JobState::parse(const std::string& json, JobState& out,
                     std::string& error) {
  obs::JsonValue doc;
  try {
    doc = obs::parseJson(json);
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
  if (stringOf(doc, "schema") != "confail.jobstate.v1") {
    error = "missing or unsupported schema (want confail.jobstate.v1)";
    return false;
  }
  out.id = stringOf(doc, "id");
  out.name = stringOf(doc, "name");
  out.status = stringOf(doc, "status");
  out.shardsTotal = countOf(doc, "shards_total");
  out.shardsDone = countOf(doc, "shards_done");
  out.shardsFailed = countOf(doc, "shards_failed");
  out.findings = countOf(doc, "findings");
  error.clear();
  return true;
}

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
  if (!ensureDir(fs::path(jobDir(id)) / "shards")) {
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

std::string CampaignStore::shardPath(const std::string& id,
                                     std::size_t index) const {
  return (fs::path(jobDir(id)) / "shards" / shardFileName(index)).string();
}

std::string CampaignStore::shardEventsPath(const std::string& id,
                                          std::size_t index) const {
  return sidecarPathFor(shardPath(id, index));
}

std::string CampaignStore::statePath(const std::string& id) const {
  return (fs::path(jobDir(id)) / "state.json").string();
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

// -- shard serialization ----------------------------------------------------

std::string CampaignStore::sidecarPathFor(const std::string& headerPath) {
  constexpr std::string_view kJson = ".json";
  std::string_view stem = headerPath;
  if (stem.size() >= kJson.size() &&
      stem.substr(stem.size() - kJson.size()) == kJson) {
    stem.remove_suffix(kJson.size());
  }
  return std::string(stem) + ".events.jsonl";
}

std::string CampaignStore::shardToJson(const ShardResult& r) {
  return renderHeader(r, r.eventsJsonl.size());
}

bool CampaignStore::shardFromJson(const std::string& json, ShardResult& out,
                                  std::uint64_t& eventsBytes,
                                  std::string& error) {
  obs::JsonValue doc;
  try {
    doc = obs::parseJson(json);
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
  if (stringOf(doc, "schema") != "confail.shard.v2") {
    error = "missing or unsupported schema (want confail.shard.v2)";
    return false;
  }
  const obs::JsonValue* bytes = doc.get("events_bytes");
  if (bytes == nullptr || !bytes->isNumber() || bytes->number < 0 ||
      bytes->number >= 18446744073709551616.0 ||
      bytes->number != std::floor(bytes->number)) {
    error = "shard header lacks a byte count for its events";
    return false;
  }
  ShardResult r;
  r.spec.index = static_cast<std::size_t>(countOf(doc, "index"));
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
  eventsBytes = static_cast<std::uint64_t>(bytes->number);
  error.clear();
  return true;
}

bool CampaignStore::writeShardFile(const std::string& path,
                                   const ShardResult& r,
                                   const events::Trace* run) {
  // Uncommit first, so an old header never vouches for the new sidecar.
  std::error_code ec;
  fs::remove(path, ec);
  std::uint64_t bytes = 0;
  const bool sidecar =
      writeAtomically(sidecarPathFor(path), [&](std::FILE* f) {
        if (run == nullptr) {
          bytes = r.eventsJsonl.size();
          return writeAll(f, r.eventsJsonl);
        }
        // Lines are gathered in one buffer handed on in ~64 KB pieces.
        constexpr std::size_t kPieceBytes = 64 * 1024;
        std::string piece;
        bool ok = true;
        const auto flush = [&] {
          ok = ok && writeAll(f, piece);
          bytes += piece.size();
          piece.clear();
        };
        obs::forEachJsonlLine(*run, [&](const std::string& line) {
          piece += line;
          piece += '\n';
          if (piece.size() >= kPieceBytes) flush();
        });
        flush();
        return ok;
      });
  return sidecar && writeFileAtomic(path, renderHeader(r, bytes) + "\n");
}

bool CampaignStore::writeShard(const std::string& id, const ShardResult& r,
                               const events::Trace* run) const {
  return writeShardFile(shardPath(id, r.spec.index), r, run);
}

bool CampaignStore::readShardHeader(const std::string& id,
                                    std::size_t index, ShardResult& out,
                                    std::uint64_t& eventsBytes) const {
  std::string text;
  if (!readFile(shardPath(id, index), text)) return false;
  ShardResult r;
  std::uint64_t bytes = 0;
  std::string error;
  if (!shardFromJson(text, r, bytes, error)) return false;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(shardEventsPath(id, index), ec);
  if (ec || size != bytes) return false;  // torn pair: not landed
  out = std::move(r);
  eventsBytes = bytes;
  return true;
}

bool CampaignStore::readShard(const std::string& id, std::size_t index,
                              ShardResult& out) const {
  ShardResult r;
  std::uint64_t bytes = 0;
  if (!readShardHeader(id, index, r, bytes) ||
      !readFile(shardEventsPath(id, index), r.eventsJsonl) ||
      r.eventsJsonl.size() != bytes) {
    return false;
  }
  out = std::move(r);
  return true;
}

std::vector<bool> CampaignStore::completedShards(const std::string& id,
                                                 std::size_t count) const {
  std::vector<bool> done(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    ShardResult unused;
    std::uint64_t bytes = 0;
    done[i] = readShardHeader(id, i, unused, bytes);
  }
  return done;
}

bool CampaignStore::writeState(const std::string& id,
                               const JobState& st) const {
  return writeFileAtomic(statePath(id), st.toJson() + "\n");
}

bool CampaignStore::readState(const std::string& id, JobState& out) const {
  std::string text;
  if (!readFile(statePath(id), text)) return false;
  std::string error;
  return JobState::parse(text, out, error);
}

bool CampaignStore::journalShard(const std::string& id,
                                 std::size_t index) const {
  obs::JsonWriter w;
  w.beginObject();
  w.field("shard", static_cast<std::uint64_t>(index));
  w.endObject();
  std::string line = w.str();
  // JsonWriter pretty-prints; a journal line must be exactly one line.
  std::string flat;
  for (char c : line) {
    if (c == '\n') continue;
    flat += c;
  }
  return appendFile(journalPath(id), flat + "\n");
}

std::vector<bool> CampaignStore::journaledShards(const std::string& id,
                                                 std::size_t count) const {
  std::vector<bool> journaled(count, false);
  std::string text;
  if (!readFile(journalPath(id), text)) return journaled;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    try {
      const obs::JsonValue doc =
          obs::parseJson(text.substr(begin, end - begin));
      const obs::JsonValue* shard = doc.get("shard");
      if (shard != nullptr && shard->isNumber() && shard->number >= 0 &&
          shard->number < static_cast<double>(count)) {
        journaled[static_cast<std::size_t>(shard->number)] = true;
      }
    } catch (const Error&) {
      // A line that does not parse journals nothing.
    }
    begin = end + 1;
  }
  return journaled;
}

bool CampaignStore::appendShardEvents(const std::string& id,
                                      std::size_t index,
                                      std::uint64_t eventsBytes,
                                      std::uint64_t& appended) const {
  appended = 0;
  if (eventsBytes == 0) return true;
  const int in = ::open(shardEventsPath(id, index).c_str(),
                        O_RDONLY | O_CLOEXEC);
  if (in < 0) return false;
  const int feed = ::open(eventsPath(id).c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (feed < 0) {
    ::close(in);
    return false;
  }
  std::array<char, 64 * 1024> buf;
  std::uint64_t left = eventsBytes;
  char last = '\n';
  bool ok = true;
  while (ok && left > 0) {
    const ssize_t n = ::read(
        in, buf.data(), static_cast<std::size_t>(std::min<std::uint64_t>(
                            left, buf.size())));
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0 && writeFully(feed, buf.data(), static_cast<std::size_t>(n));
    if (!ok) break;  // a sidecar shorter than its header, or I/O failure
    left -= static_cast<std::uint64_t>(n);
    appended += static_cast<std::uint64_t>(n);
    last = buf[static_cast<std::size_t>(n) - 1];
  }
  if (ok && last != '\n') {
    ok = writeFully(feed, "\n", 1);
    appended += ok ? 1 : 0;
  }
  ::close(in);
  return (::close(feed) == 0) && ok;
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
