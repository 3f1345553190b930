// Test-only reference oracle: the JSONL renderer obs::forEachJsonlLine
// replaced.  It builds each event as a pretty-printed JsonWriter object and
// flattens it to one line (newlines become spaces, runs of spaces merge),
// so it is slow but plainly the JsonWriter dialect.  The flatten step also
// merges runs of spaces inside string values; callers compare against it
// only on names without two adjacent spaces.
#pragma once

#include <cstdint>
#include <string>

#include "confail/events/trace.hpp"
#include "confail/obs/json.hpp"

namespace confail::obs::reference {

inline std::string toJsonl(const events::Trace& trace) {
  using events::EventKind;
  std::string out;
  for (const events::Event& e : trace.events()) {
    JsonWriter w;
    w.beginObject();
    w.field("seq", e.seq);
    w.field("kind", events::kindName(e.kind));
    if (e.thread != events::kNoThread) {
      w.field("thread", static_cast<std::uint64_t>(e.thread));
      w.field("thread_name", trace.threadName(e.thread));
    }
    if (e.monitor != events::kNoMonitor) {
      w.field("monitor", static_cast<std::uint64_t>(e.monitor));
      w.field("monitor_name", trace.monitorName(e.monitor));
    }
    if (e.method != events::kNoMethod) {
      w.field("method_ctx", static_cast<std::uint64_t>(e.method));
      w.field("method", trace.methodName(e.method));
    }
    switch (e.kind) {
      case EventKind::Read:
      case EventKind::Write:
        w.field("var_id", e.aux);
        w.field("var", trace.varName(static_cast<events::VarId>(e.aux)));
        break;
      case EventKind::NotifyCall:
      case EventKind::NotifyAllCall:
        w.field("waiters", e.aux);
        break;
      case EventKind::ThreadSpawn:
        w.field("child_id", e.aux);
        w.field("child",
                trace.threadName(static_cast<events::ThreadId>(e.aux)));
        break;
      case EventKind::GuardEval:
        w.field("guard_method_id", e.aux);
        w.field("guard_method",
                trace.methodName(static_cast<events::MethodId>(e.aux)));
        w.field("value", e.flag);
        break;
      case EventKind::MethodEnter:
      case EventKind::MethodExit:
        w.field("method_id", e.aux);
        break;
      case EventKind::ClockAwait:
      case EventKind::ClockTick:
        w.field("t", e.aux);
        break;
      default:
        if (e.aux != 0) w.field("aux", e.aux);
        break;
    }
    w.endObject();
    bool lastWasSpace = false;
    for (char c : w.str()) {
      if (c == '\n') c = ' ';
      const bool isSpace = c == ' ';
      if (isSpace && lastWasSpace) continue;
      lastWasSpace = isSpace;
      out += c;
    }
    out += '\n';
  }
  return out;
}

}  // namespace confail::obs::reference
