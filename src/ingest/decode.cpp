#include "confail/ingest/decode.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>

#include "confail/ingest/line_scan.hpp"
#include "confail/obs/json.hpp"
#include "confail/support/assert.hpp"

namespace confail::ingest {

using events::Event;
using events::EventKind;

// ---------------------------------------------------------------------------
// NameTable

void NameTable::Table::store(std::uint32_t id, std::string_view name) {
  if (id == 0xffffffffu) return;  // sentinel ids are never named
  std::string& slot = names_[id];
  if (!slot.empty() || name.empty()) return;
  slot = name;
  const auto [it, fresh] = index_.try_emplace(slot, id);
  if (!fresh && id < it->second) it->second = id;
}

std::uint32_t NameTable::Table::intern(std::string_view name) {
  if (name.empty()) {
    // Every unnamed slot carries the empty name: the lowest one wins.
    std::uint32_t id = 0;
    for (; id < names_.size(); ++id) {
      const std::string* slot = names_.find(id);
      if (slot == nullptr || slot->empty()) return id;
    }
    names_[id];
    return id;
  }
  if (const auto it = index_.find(name); it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  std::string& slot = names_[id];
  slot = name;
  index_.try_emplace(slot, id);
  return id;
}

std::string NameTable::Table::lookup(std::uint32_t id,
                                     const char* prefix) const {
  const std::string* slot = names_.find(id);
  if (slot != nullptr && !slot->empty()) return *slot;
  return std::string(prefix) + std::to_string(id);
}

void NameTable::Table::copyTo(
    events::Trace& trace,
    void (events::Trace::*name)(std::uint32_t, std::string)) const {
  names_.forEach([&](std::uint32_t id, const std::string& slot) {
    if (!slot.empty()) (trace.*name)(id, slot);
  });
}

void NameTable::copyTo(events::Trace& trace) const {
  threads_.copyTo(trace, &events::Trace::nameThread);
  monitors_.copyTo(trace, &events::Trace::nameMonitor);
  vars_.copyTo(trace, &events::Trace::nameVar);
  methods_.copyTo(trace, &events::Trace::nameMethod);
}

// ---------------------------------------------------------------------------
// JSONL

namespace {

/// The DOM path: flatten a parsed line into `out`.  Map keys are unique
/// (parseJson keeps the first of repeated keys).
bool domFields(const obs::JsonValue& v, LineFields& out) {
  out.clear();
  if (!v.isObject()) return false;
  for (const auto& [name, value] : v.object) {
    LineKey key = LineKey::Seq;
    if (!lineKeyFromName(name, key)) continue;
    LineFields::Field& f = *out.add(key);
    f.type = LineFields::Type::Other;
    switch (value.kind) {
      case obs::JsonValue::Kind::Number:
        // A number no event field can hold is not a number to the decoder.
        if (value.number >= 0.0 && value.number < 18446744073709551616.0) {
          f.type = LineFields::Type::Number;
          f.number = static_cast<std::uint64_t>(value.number);
        }
        break;
      case obs::JsonValue::Kind::String:
        f.type = LineFields::Type::String;
        f.string = value.string;
        break;
      case obs::JsonValue::Kind::Bool:
        f.type = LineFields::Type::Bool;
        f.boolean = value.boolean;
        break;
      default:
        break;
    }
  }
  return true;
}

/// Build the Event a line's fields describe, registering the names it
/// carries in `names` (a NameTable or a BlockNames).  False when the
/// fields are not an event.
template <typename Names>
bool assemble(const LineFields& f, Names& names, Event& out) {
  using K = LineKey;
  const TextView* kindName = f.string(K::Kind);
  const std::uint64_t* seq = f.number(K::Seq);
  EventKind kind = EventKind::ThreadStart;
  if (kindName == nullptr || seq == nullptr ||
      !events::tryKindFromName(*kindName, kind)) {
    return false;
  }
  const auto u64 = [&f](LineKey k) {
    const std::uint64_t* n = f.number(k);
    return n != nullptr ? *n : 0;
  };

  Event e;
  e.kind = kind;
  e.seq = *seq;
  if (const std::uint64_t* t = f.number(K::Thread)) {
    e.thread = static_cast<events::ThreadId>(*t);
    if (const TextView* n = f.string(K::ThreadName)) names.thread(e.thread, *n);
  }
  if (const std::uint64_t* m = f.number(K::Monitor)) {
    e.monitor = static_cast<events::MonitorId>(*m);
    if (const TextView* n = f.string(K::MonitorName)) {
      names.monitor(e.monitor, *n);
    }
  }
  // Method context: v2 writes the numeric id next to the name; v1 wrote the
  // name only, so fall back to first-seen interning.
  if (const std::uint64_t* mc = f.number(K::MethodCtx)) {
    e.method = static_cast<events::MethodId>(*mc);
    if (const TextView* n = f.string(K::Method)) names.method(e.method, *n);
  } else if (const TextView* n = f.string(K::Method);
             n != nullptr && kind != EventKind::MethodEnter &&
             kind != EventKind::MethodExit) {
    e.method = names.internMethod(*n);
  }

  switch (kind) {
    case EventKind::Read:
    case EventKind::Write: {
      const TextView* name = f.string(K::Var);
      if (const std::uint64_t* id = f.number(K::VarId)) {
        e.aux = *id;
        if (name != nullptr) names.var(static_cast<events::VarId>(e.aux), *name);
      } else if (name != nullptr) {
        e.aux = names.internVar(*name);
      }
      break;
    }
    case EventKind::NotifyCall:
    case EventKind::NotifyAllCall:
      e.aux = u64(K::Waiters);
      break;
    case EventKind::ThreadSpawn: {
      const TextView* name = f.string(K::Child);
      if (const std::uint64_t* id = f.number(K::ChildId)) {
        e.aux = *id;
        if (name != nullptr) {
          names.thread(static_cast<events::ThreadId>(e.aux), *name);
        }
      } else if (name != nullptr) {
        e.aux = names.internThread(*name);
      }
      break;
    }
    case EventKind::GuardEval: {
      const TextView* name = f.string(K::GuardMethod);
      if (const std::uint64_t* id = f.number(K::GuardMethodId)) {
        e.aux = *id;
        if (name != nullptr) {
          names.method(static_cast<events::MethodId>(e.aux), *name);
        }
      } else if (name != nullptr) {
        e.aux = names.internMethod(*name);
      }
      if (const bool* value = f.boolean(K::Value)) e.flag = *value;
      break;
    }
    case EventKind::MethodEnter:
    case EventKind::MethodExit: {
      const std::uint64_t* id = f.number(K::MethodId);
      e.aux = id != nullptr ? *id : u64(K::Aux);  // v1 wrote the raw aux
      if (const TextView* n = f.string(K::Method)) {
        names.method(static_cast<events::MethodId>(e.aux), *n);
      }
      break;
    }
    case EventKind::ClockAwait:
    case EventKind::ClockTick:
      e.aux = u64(K::T);
      break;
    default:
      e.aux = u64(K::Aux);
      break;
  }
  out = e;
  return true;
}

/// assemble()'s names for decodeBlock: records each registration as an
/// op and notes a request to intern, which defers the line to commit.
class BlockNames {
 public:
  explicit BlockNames(DecodedBlock& block) : block_(block) {}

  void thread(std::uint32_t id, std::string_view n) { add(kThread, id, n); }
  void monitor(std::uint32_t id, std::string_view n) { add(kMonitor, id, n); }
  void var(std::uint32_t id, std::string_view n) { add(kVar, id, n); }
  void method(std::uint32_t id, std::string_view n) { add(kMethod, id, n); }
  std::uint32_t internThread(std::string_view) { return defer(); }
  std::uint32_t internMonitor(std::string_view) { return defer(); }
  std::uint32_t internVar(std::string_view) { return defer(); }
  std::uint32_t internMethod(std::string_view) { return defer(); }

  /// Start a line whose first event would land at `at`.
  void beginLine(std::uint32_t at) {
    at_ = at;
    lineOps_ = block_.ops.size();
    deferred_ = false;
  }

  /// End the current line: keep its ops (true), or replace them by one
  /// deferred op for the whole line when it asked to intern or `defer`.
  bool endLine(std::string_view line, bool defer) {
    if (defer || deferred_) {
      block_.ops.resize(lineOps_);
      block_.ops.push_back(
          DecodedBlock::Op{DecodedBlock::Op::Kind::Deferred, 0, at_, line});
      return false;
    }
    for (std::size_t i = lineOps_; i < block_.ops.size(); ++i) {
      const DecodedBlock::Op& op = block_.ops[i];
      seen_[static_cast<std::size_t>(op.kind)][op.id % kSeenSlots] = op.id + 1;
    }
    return true;
  }

 private:
  static constexpr auto kThread = DecodedBlock::Op::Kind::Thread;
  static constexpr auto kMonitor = DecodedBlock::Op::Kind::Monitor;
  static constexpr auto kVar = DecodedBlock::Op::Kind::Var;
  static constexpr auto kMethod = DecodedBlock::Op::Kind::Method;
  static constexpr std::size_t kSeenSlots = 64;

  // A name for a sentinel id, an empty name, or a name for an id an
  // earlier line of the block already named is a no-op at commit
  // (NameTable keeps the first name), so it is not recorded.
  void add(DecodedBlock::Op::Kind kind, std::uint32_t id,
           std::string_view name) {
    if (id == 0xffffffffu || name.empty()) return;
    if (seen_[static_cast<std::size_t>(kind)][id % kSeenSlots] == id + 1) {
      return;
    }
    block_.ops.push_back(DecodedBlock::Op{kind, id, at_, name});
  }

  std::uint32_t defer() {
    deferred_ = true;
    return 0;
  }

  DecodedBlock& block_;
  std::uint32_t at_ = 0;
  std::size_t lineOps_ = 0;
  bool deferred_ = false;
  // Per table, a direct-mapped set of id + 1 named by kept lines.
  std::uint32_t seen_[4][kSeenSlots] = {};
};

}  // namespace

void decodeBlock(std::string_view text, DecodedBlock& out) {
  out.events.clear();
  out.ops.clear();
  out.bytes = text.size();
  out.lines = 0;
  out.malformed = 0;
  BlockNames names(out);
  LineFields f;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    ++out.lines;
    names.beginLine(static_cast<std::uint32_t>(out.events.size()));
    // Only the scanner's views point into `text`; a line it does not claim
    // goes to the DOM at commit.
    const bool scanned = scanLine(line, f);
    Event e;
    const bool ok = scanned && assemble(f, names, e);
    if (!names.endLine(line, !scanned)) continue;
    if (ok) {
      out.events.push_back(e);
    } else {
      ++out.malformed;
    }
  }
}

bool decodeJsonlLine(std::string_view line, NameTable& names,
                     events::Event& out) {
  LineFields f;
  if (scanLine(line, f)) return assemble(f, names, out);
  return decodeJsonlLineDom(line, names, out);
}

bool decodeJsonlLineDom(std::string_view line, NameTable& names,
                        events::Event& out) {
  obs::JsonValue v;
  try {
    v = obs::parseJson(std::string(line));
  } catch (const confail::UsageError&) {
    return false;
  }
  LineFields f;
  return domFields(v, f) && assemble(f, names, out);
}

void JsonlDecoder::replay(const DecodedBlock& block, const Emit& emit) {
  using Kind = DecodedBlock::Op::Kind;
  stats_.lines += block.lines;
  stats_.events += block.events.size();
  stats_.malformed += block.malformed;
  std::size_t next = 0;
  for (const DecodedBlock::Op& op : block.ops) {
    for (; next < op.at; ++next) emit(block.events[next]);
    switch (op.kind) {
      case Kind::Thread:
        names_.thread(op.id, op.text);
        break;
      case Kind::Monitor:
        names_.monitor(op.id, op.text);
        break;
      case Kind::Var:
        names_.var(op.id, op.text);
        break;
      case Kind::Method:
        names_.method(op.id, op.text);
        break;
      case Kind::Deferred: {
        events::Event e;
        if (decodeJsonlLine(op.text, names_, e)) {
          ++stats_.events;
          emit(e);
        } else {
          ++stats_.malformed;
        }
        break;
      }
    }
  }
  for (; next < block.events.size(); ++next) emit(block.events[next]);
}

void JsonlDecoder::commit(const DecodedBlock& block, const Emit& emit) {
  stats_.bytes += block.bytes;
  replay(block, emit);
}

void JsonlDecoder::feed(std::string_view chunk, const Emit& emit) {
  stats_.bytes += chunk.size();
  if (!pending_.empty()) {
    // Complete the line the previous chunk cut.
    const std::size_t nl = chunk.find('\n');
    if (nl == std::string_view::npos) {
      pending_.append(chunk);
      return;
    }
    pending_.append(chunk.substr(0, nl + 1));
    decodeBlock(pending_, block_);
    replay(block_, emit);
    pending_.clear();
    chunk.remove_prefix(nl + 1);
  }
  const std::size_t end = chunk.rfind('\n');
  if (end == std::string_view::npos) {
    pending_.assign(chunk);
    return;
  }
  // Whole lines, a block at a time so the decoded events stay in cache.
  std::string_view lines = chunk.substr(0, end + 1);
  while (!lines.empty()) {
    const std::size_t n = wholeLinesPrefix(lines, kDecodeBlockBytes);
    decodeBlock(lines.substr(0, n), block_);
    replay(block_, emit);
    lines.remove_prefix(n);
  }
  pending_.assign(chunk.substr(end + 1));
}

std::size_t wholeLinesPrefix(std::string_view text, std::size_t maxBytes) {
  if (text.size() <= maxBytes) {
    const std::size_t nl = text.rfind('\n');
    return nl == std::string_view::npos ? 0 : nl + 1;
  }
  std::size_t nl = maxBytes == 0 ? std::string_view::npos
                                 : text.rfind('\n', maxBytes - 1);
  if (nl == std::string_view::npos) nl = text.find('\n');  // one long line
  return nl == std::string_view::npos ? 0 : nl + 1;
}

void JsonlDecoder::flush(const Emit& emit) {
  if (pending_.empty()) return;
  events::Event e;
  if (decodeJsonlLine(pending_, names_, e)) {
    // Complete object, just missing its newline: accept it.
    ++stats_.lines;
    ++stats_.events;
    emit(e);
  } else {
    // A write was cut mid-line; drop the fragment rather than invent data.
    ++stats_.truncated;
  }
  pending_.clear();
}

JsonlDecoder::Stats loadJsonlTrace(std::istream& in, events::Trace& out) {
  JsonlDecoder dec;
  std::vector<Event> events;
  const auto emit = [&events](const Event& e) { events.push_back(e); };
  std::string chunk(1 << 16, '\0');
  while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         in.gcount() > 0) {
    dec.feed(std::string_view(chunk.data(),
                              static_cast<std::size_t>(in.gcount())),
             emit);
  }
  dec.flush(emit);
  out.restore(events);
  dec.names().copyTo(out);
  return dec.stats();
}

// ---------------------------------------------------------------------------
// Chrome trace_event

namespace {

/// A JSON number as an event field: outside [0, 2^64) it is no number, 0.
std::uint64_t toU64(double n) {
  return n >= 0.0 && n < 18446744073709551616.0 ? static_cast<std::uint64_t>(n)
                                                : 0;
}

std::uint64_t asU64(const obs::JsonValue* v) {
  return v != nullptr && v->isNumber() ? toU64(v->number) : 0;
}

const std::string* asString(const obs::JsonValue* v) {
  return v != nullptr && v->kind == obs::JsonValue::Kind::String ? &v->string
                                                                 : nullptr;
}

struct Rebuilt {
  std::uint64_t ts;
  std::uint64_t order;  // stable tiebreak: emission index
  Event e;
};

std::uint64_t argU64(const obs::JsonValue& entry, const char* key) {
  const obs::JsonValue* args = entry.get("args");
  if (args == nullptr) return 0;
  const obs::JsonValue* v = args->get(key);
  if (v == nullptr) return 0;
  if (v->isNumber()) return toU64(v->number);
  if (v->kind == obs::JsonValue::Kind::String) {
    return static_cast<std::uint64_t>(
        std::strtoull(v->string.c_str(), nullptr, 10));
  }
  return 0;
}

const std::string* argStr(const obs::JsonValue& entry, const char* key) {
  const obs::JsonValue* args = entry.get("args");
  if (args == nullptr) return nullptr;
  const obs::JsonValue* v = args->get(key);
  return v != nullptr && v->kind == obs::JsonValue::Kind::String ? &v->string
                                                                 : nullptr;
}

/// "acquire buf (never granted)" -> op "acquire", operand "buf".
void splitSliceName(const std::string& name, std::string& op,
                    std::string& operand) {
  std::string s = name;
  const std::size_t paren = s.find(" (");
  if (paren != std::string::npos) s.resize(paren);
  const std::size_t space = s.find(' ');
  if (space == std::string::npos) {
    op = s;
    operand.clear();
  } else {
    op = s.substr(0, space);
    operand = s.substr(space + 1);
  }
}

}  // namespace

std::uint64_t decodeChromeTrace(const std::string& text, NameTable& names,
                                std::vector<events::Event>& out) {
  obs::JsonValue doc;
  try {
    doc = obs::parseJson(text);
  } catch (const confail::UsageError&) {
    return 1;  // the whole document is unmappable
  }
  const obs::JsonValue* evs = doc.get("traceEvents");
  if (evs == nullptr || !evs->isArray()) return 1;

  std::uint64_t unmapped = 0;
  std::vector<Rebuilt> rebuilt;
  std::uint64_t order = 0;
  auto emit = [&](std::uint64_t ts, Event e) {
    e.seq = ts;
    rebuilt.push_back(Rebuilt{ts, order++, e});
  };

  for (const obs::JsonValue& entry : evs->array) {
    const std::string* ph = asString(entry.get("ph"));
    if (ph == nullptr) {
      ++unmapped;
      continue;
    }
    const events::ThreadId tid =
        static_cast<events::ThreadId>(asU64(entry.get("tid")));
    if (*ph == "M") {
      if (const std::string* n = argStr(entry, "name")) {
        names.thread(tid, *n);
      }
      continue;
    }
    const std::uint64_t ts = asU64(entry.get("ts"));
    const std::string* name = asString(entry.get("name"));
    if (name == nullptr) {
      ++unmapped;
      continue;
    }
    Event base;
    base.thread = tid;
    if (*ph == "X") {
      const std::uint64_t dur = asU64(entry.get("dur"));
      const std::string* cat = asString(entry.get("cat"));
      const bool open = name->find(" (never") != std::string::npos ||
                        name->find(" (unfinished)") != std::string::npos;
      if (cat != nullptr && *cat == "method") {
        std::string mname = *name;
        const std::size_t paren = mname.find(" (");
        if (paren != std::string::npos) mname.resize(paren);
        Event e = base;
        e.kind = EventKind::MethodEnter;
        e.aux = names.internMethod(mname);
        e.method = static_cast<events::MethodId>(e.aux);
        emit(ts, e);
        if (!open) {
          e.kind = EventKind::MethodExit;
          emit(ts + dur, e);
        }
        continue;
      }
      std::string op;
      std::string mon;
      splitSliceName(*name, op, mon);
      const events::MonitorId monitor =
          mon.empty() ? events::kNoMonitor : names.internMonitor(mon);
      if (op == "acquire") {
        Event e = base;
        e.kind = EventKind::LockRequest;
        e.monitor = monitor;
        emit(ts, e);
      } else if (op == "hold") {
        Event e = base;
        e.kind = EventKind::LockAcquire;
        e.monitor = monitor;
        emit(ts, e);
        if (!open) {
          e.kind = EventKind::LockRelease;
          emit(ts + dur, e);
        }
      } else if (op == "wait") {
        Event e = base;
        e.kind = EventKind::WaitBegin;
        e.monitor = monitor;
        emit(ts, e);
        // A spurious wake ends the slice but emits its own instant; a
        // never-notified slice has no end event at all.
        if (!open && name->find("(spurious wake)") == std::string::npos) {
          e.kind = EventKind::Notified;
          emit(ts + dur, e);
        }
      } else {
        ++unmapped;
      }
      continue;
    }
    if (*ph != "i") {
      ++unmapped;
      continue;
    }
    Event e = base;
    if (*name == "notify" || *name == "notifyAll") {
      e.kind = *name == "notify" ? EventKind::NotifyCall
                                 : EventKind::NotifyAllCall;
      if (const std::string* m = argStr(entry, "monitor")) {
        e.monitor = names.internMonitor(*m);
      }
      e.aux = argU64(entry, "waiters");
    } else if (*name == "spurious-wake") {
      e.kind = EventKind::SpuriousWake;
      if (const std::string* m = argStr(entry, "monitor")) {
        e.monitor = names.internMonitor(*m);
      }
    } else if (*name == "read" || *name == "write") {
      e.kind = *name == "read" ? EventKind::Read : EventKind::Write;
      if (const std::string* v = argStr(entry, "var")) {
        e.aux = names.internVar(*v);
      }
    } else if (*name == "spawn") {
      e.kind = EventKind::ThreadSpawn;
      if (const std::string* c = argStr(entry, "child")) {
        e.aux = names.internThread(*c);
      }
    } else if (*name == "thread-start") {
      e.kind = EventKind::ThreadStart;
    } else if (*name == "thread-end") {
      e.kind = EventKind::ThreadEnd;
    } else if (*name == "guard") {
      e.kind = EventKind::GuardEval;
      if (const std::string* m = argStr(entry, "method")) {
        e.aux = names.internMethod(*m);
      }
      const std::string* val = argStr(entry, "value");
      e.flag = val != nullptr && *val == "true";
    } else if (*name == "clock-await" || *name == "clock-tick") {
      e.kind = *name == "clock-await" ? EventKind::ClockAwait
                                      : EventKind::ClockTick;
      e.aux = argU64(entry, "t");
    } else {
      ++unmapped;
      continue;
    }
    emit(ts, e);
  }

  std::stable_sort(rebuilt.begin(), rebuilt.end(),
                   [](const Rebuilt& a, const Rebuilt& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.order < b.order;
                   });
  out.reserve(out.size() + rebuilt.size());
  for (const Rebuilt& r : rebuilt) out.push_back(r.e);
  return unmapped;
}

}  // namespace confail::ingest
