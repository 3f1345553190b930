#include "confail/obs/trace_export.hpp"

#include <charconv>
#include <cstdio>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "confail/obs/json.hpp"

namespace confail::obs {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::ThreadId;

namespace {

// One emitted trace_event slice or instant, buffered so the document can be
// written in one pass after all pairings resolve.
struct ChromeEvent {
  std::string name;
  const char* cat;
  char phase;  // 'X' (complete, uses dur) or 'i' (instant)
  ThreadId tid;
  std::uint64_t ts;
  std::uint64_t dur = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

struct OpenSlice {
  std::string name;
  const char* cat;
  std::uint64_t begin;
};

const char* instantName(EventKind k) {
  switch (k) {
    case EventKind::NotifyCall: return "notify";
    case EventKind::NotifyAllCall: return "notifyAll";
    case EventKind::SpuriousWake: return "spurious-wake";
    case EventKind::Read: return "read";
    case EventKind::Write: return "write";
    case EventKind::ThreadSpawn: return "spawn";
    case EventKind::ThreadStart: return "thread-start";
    case EventKind::ThreadEnd: return "thread-end";
    case EventKind::GuardEval: return "guard";
    case EventKind::ClockAwait: return "clock-await";
    case EventKind::ClockTick: return "clock-tick";
    default: return "event";
  }
}

}  // namespace

std::string toChromeTrace(const events::Trace& trace) {
  const std::vector<Event> events = trace.events();

  std::vector<ChromeEvent> out;
  out.reserve(events.size() * 2);
  std::set<ThreadId> threads;
  // Open slices, keyed per thread: the held-lock region and the wait region
  // are per (thread, monitor); the method stack is per thread.
  std::map<std::pair<ThreadId, MonitorId>, OpenSlice> lockWait;
  std::map<std::pair<ThreadId, MonitorId>, OpenSlice> lockHeld;
  std::map<std::pair<ThreadId, MonitorId>, OpenSlice> waiting;
  std::map<ThreadId, std::vector<OpenSlice>> methodStack;

  std::uint64_t lastTs = 0;
  auto closeInto = [&out](std::map<std::pair<ThreadId, MonitorId>, OpenSlice>& open,
                          ThreadId tid, MonitorId mon, std::uint64_t endTs,
                          const char* renamed = nullptr) {
    auto it = open.find({tid, mon});
    if (it == open.end()) return;
    ChromeEvent ce;
    ce.name = renamed != nullptr ? renamed : it->second.name;
    ce.cat = it->second.cat;
    ce.phase = 'X';
    ce.tid = tid;
    ce.ts = it->second.begin;
    ce.dur = endTs >= it->second.begin ? endTs - it->second.begin : 0;
    out.push_back(std::move(ce));
    open.erase(it);
  };

  for (const Event& e : events) {
    if (e.thread == events::kNoThread) continue;
    threads.insert(e.thread);
    lastTs = e.seq;
    const std::string mon = e.monitor != events::kNoMonitor
                                ? trace.monitorName(e.monitor)
                                : std::string();
    switch (e.kind) {
      case EventKind::LockRequest:
        lockWait[{e.thread, e.monitor}] =
            OpenSlice{"acquire " + mon, "monitor", e.seq};
        break;
      case EventKind::LockAcquire:
        closeInto(lockWait, e.thread, e.monitor, e.seq);
        lockHeld[{e.thread, e.monitor}] =
            OpenSlice{"hold " + mon, "monitor", e.seq};
        break;
      case EventKind::WaitBegin:
        // wait() releases the lock: the held slice ends here and the wait
        // slice begins.
        closeInto(lockHeld, e.thread, e.monitor, e.seq);
        waiting[{e.thread, e.monitor}] =
            OpenSlice{"wait " + mon, "monitor", e.seq};
        break;
      case EventKind::LockRelease:
        closeInto(lockHeld, e.thread, e.monitor, e.seq);
        break;
      case EventKind::Notified:
        closeInto(waiting, e.thread, e.monitor, e.seq);
        break;
      case EventKind::SpuriousWake: {
        // The waiter leaves the wait set without a notify; rename the slice
        // so the anomaly is visible on the timeline.
        closeInto(waiting, e.thread, e.monitor, e.seq, "wait (spurious wake)");
        ChromeEvent ce;
        ce.name = instantName(e.kind);
        ce.cat = "monitor";
        ce.phase = 'i';
        ce.tid = e.thread;
        ce.ts = e.seq;
        if (!mon.empty()) ce.args.emplace_back("monitor", mon);
        out.push_back(std::move(ce));
        break;
      }
      case EventKind::MethodEnter:
        methodStack[e.thread].push_back(OpenSlice{
            trace.methodName(static_cast<events::MethodId>(e.aux)), "method",
            e.seq});
        break;
      case EventKind::MethodExit: {
        auto& stack = methodStack[e.thread];
        if (!stack.empty()) {
          ChromeEvent ce;
          ce.name = stack.back().name;
          ce.cat = "method";
          ce.phase = 'X';
          ce.tid = e.thread;
          ce.ts = stack.back().begin;
          ce.dur = e.seq - stack.back().begin;
          out.push_back(std::move(ce));
          stack.pop_back();
        }
        break;
      }
      default: {
        ChromeEvent ce;
        ce.name = instantName(e.kind);
        ce.cat = "event";
        ce.phase = 'i';
        ce.tid = e.thread;
        ce.ts = e.seq;
        switch (e.kind) {
          case EventKind::Read:
          case EventKind::Write:
            ce.cat = "data";
            ce.args.emplace_back(
                "var", trace.varName(static_cast<events::VarId>(e.aux)));
            break;
          case EventKind::NotifyCall:
          case EventKind::NotifyAllCall:
            ce.cat = "monitor";
            ce.args.emplace_back("monitor", mon);
            ce.args.emplace_back("waiters", std::to_string(e.aux));
            break;
          case EventKind::ThreadSpawn:
            ce.args.emplace_back(
                "child", trace.threadName(static_cast<ThreadId>(e.aux)));
            break;
          case EventKind::GuardEval:
            ce.args.emplace_back(
                "method",
                trace.methodName(static_cast<events::MethodId>(e.aux)));
            ce.args.emplace_back("value", e.flag ? "true" : "false");
            break;
          case EventKind::ClockAwait:
          case EventKind::ClockTick:
            ce.cat = "clock";
            ce.args.emplace_back("t", std::to_string(e.aux));
            break;
          default:
            break;
        }
        out.push_back(std::move(ce));
        break;
      }
    }
  }

  // Close whatever is still open (deadlocked waiters, held locks at a step
  // limit): the slice runs to one past the last timestamp, so stuck threads
  // show a region extending to the end of the timeline.
  const std::uint64_t endTs = lastTs + 1;
  for (auto& [key, slice] : lockWait) {
    out.push_back(ChromeEvent{slice.name + " (never granted)", "monitor", 'X',
                              key.first, slice.begin, endTs - slice.begin, {}});
  }
  for (auto& [key, slice] : lockHeld) {
    out.push_back(ChromeEvent{slice.name + " (never released)", "monitor", 'X',
                              key.first, slice.begin, endTs - slice.begin, {}});
  }
  for (auto& [key, slice] : waiting) {
    out.push_back(ChromeEvent{slice.name + " (never notified)", "monitor", 'X',
                              key.first, slice.begin, endTs - slice.begin, {}});
  }
  for (auto& [tid, stack] : methodStack) {
    for (OpenSlice& slice : stack) {
      out.push_back(ChromeEvent{slice.name + " (unfinished)", "method", 'X',
                                tid, slice.begin, endTs - slice.begin, {}});
    }
  }

  JsonWriter w;
  w.beginObject();
  w.key("traceEvents");
  w.beginArray();
  for (ThreadId t : threads) {
    w.beginObject();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 1);
    w.field("tid", static_cast<std::uint64_t>(t));
    w.key("args");
    w.beginObject();
    w.field("name", trace.threadName(t));
    w.endObject();
    w.endObject();
  }
  for (const ChromeEvent& ce : out) {
    w.beginObject();
    w.field("name", ce.name);
    w.field("cat", ce.cat);
    w.field("ph", std::string(1, ce.phase));
    w.field("pid", 1);
    w.field("tid", static_cast<std::uint64_t>(ce.tid));
    w.field("ts", ce.ts);
    if (ce.phase == 'X') w.field("dur", ce.dur);
    if (ce.phase == 'i') w.field("s", "t");
    if (!ce.args.empty()) {
      w.key("args");
      w.beginObject();
      for (const auto& [k, v] : ce.args) w.field(k, v);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.field("displayTimeUnit", "ms");
  w.endObject();
  return w.str();
}

namespace {

/// Names of one table, each looked up in the trace (a copy under its
/// mutex) and escaped once per id.  Runtime ids are small and dense; an id
/// past kDenseIds (possible in an ingested trace) is resolved on every use
/// instead of growing the table to its size.
class EscapedNames {
 public:
  using Lookup = std::string (events::Trace::*)(std::uint32_t) const;

  EscapedNames(const events::Trace& trace, Lookup lookup)
      : trace_(trace), lookup_(lookup) {}

  const std::string& operator[](std::uint32_t id) {
    if (id >= kDenseIds) return resolve(id, spill_);
    if (id >= escaped_.size()) escaped_.resize(id + 1);
    // Never empty once resolved: the trace names an unnamed id "<kind>-<id>".
    if (escaped_[id].empty()) resolve(id, escaped_[id]);
    return escaped_[id];
  }

 private:
  static constexpr std::uint32_t kDenseIds = 4096;

  const std::string& resolve(std::uint32_t id, std::string& into) const {
    into.clear();
    appendJsonEscaped(into, (trace_.*lookup_)(id));
    return into;
  }

  const events::Trace& trace_;
  Lookup lookup_;
  std::vector<std::string> escaped_;
  std::string spill_;
};

void appendUint(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

void forEachJsonlLine(const events::Trace& trace,
                      const std::function<void(const std::string&)>& emit) {
  EscapedNames threads(trace, &events::Trace::threadName);
  EscapedNames monitors(trace, &events::Trace::monitorName);
  EscapedNames vars(trace, &events::Trace::varName);
  EscapedNames methods(trace, &events::Trace::methodName);
  std::string line;
  // One flat object per line: `{ "k": v, "k": v }`.
  auto key = [&line](const char* k) {
    line += ", \"";
    line += k;
    line += "\": ";
  };
  auto number = [&](const char* k, std::uint64_t v) {
    key(k);
    appendUint(line, v);
  };
  auto name = [&](const char* k, const std::string& escaped) {
    key(k);
    line += '"';
    line += escaped;
    line += '"';
  };
  for (const Event& e : trace.events()) {
    line.assign("{ \"seq\": ");
    appendUint(line, e.seq);
    line += ", \"kind\": \"";
    line += events::kindName(e.kind);
    line += '"';
    if (e.thread != events::kNoThread) {
      number("thread", e.thread);
      name("thread_name", threads[e.thread]);
    }
    if (e.monitor != events::kNoMonitor) {
      number("monitor", e.monitor);
      name("monitor_name", monitors[e.monitor]);
    }
    if (e.method != events::kNoMethod) {
      number("method_ctx", e.method);
      name("method", methods[e.method]);
    }
    switch (e.kind) {
      case EventKind::Read:
      case EventKind::Write:
        number("var_id", e.aux);
        name("var", vars[static_cast<events::VarId>(e.aux)]);
        break;
      case EventKind::NotifyCall:
      case EventKind::NotifyAllCall:
        number("waiters", e.aux);
        break;
      case EventKind::ThreadSpawn:
        number("child_id", e.aux);
        name("child", threads[static_cast<ThreadId>(e.aux)]);
        break;
      case EventKind::GuardEval:
        number("guard_method_id", e.aux);
        name("guard_method", methods[static_cast<events::MethodId>(e.aux)]);
        key("value");
        line += e.flag ? "true" : "false";
        break;
      case EventKind::MethodEnter:
      case EventKind::MethodExit:
        number("method_id", e.aux);
        break;
      case EventKind::ClockAwait:
      case EventKind::ClockTick:
        number("t", e.aux);
        break;
      default:
        if (e.aux != 0) number("aux", e.aux);
        break;
    }
    line += " }";
    emit(line);
  }
}

std::string toJsonl(const events::Trace& trace) {
  std::string out;
  forEachJsonlLine(trace, [&out](const std::string& line) {
    out += line;
    out += '\n';
  });
  return out;
}

namespace {
bool writeStringFile(const std::string& doc, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(doc.c_str(), f);
  return std::fclose(f) == 0;
}
}  // namespace

bool writeChromeTraceFile(const events::Trace& trace, const std::string& path) {
  return writeStringFile(toChromeTrace(trace), path);
}

bool writeJsonlFile(const events::Trace& trace, const std::string& path) {
  return writeStringFile(toJsonl(trace), path);
}

}  // namespace confail::obs
