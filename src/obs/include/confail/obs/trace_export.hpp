// Structured exporters for events::Trace.
//
// Two formats, both consumed by standard tooling instead of confail's own
// renderers:
//
//   * Chrome trace_event JSON — load the file in chrome://tracing or
//     Perfetto.  One track per logical thread (tid = ThreadId, named from
//     the trace's thread table).  Paired operations are exported as
//     complete ("X") duration events so nesting renders as stacked slices:
//       - lock-wait:   LockRequest  -> LockAcquire   ("acquire <monitor>")
//       - lock-held:   LockAcquire  -> LockRelease   ("hold <monitor>")
//       - wait:        WaitBegin    -> Notified      ("wait <monitor>")
//       - method:      MethodEnter  -> MethodExit    ("<method>")
//     One-shot operations (notify calls, spurious wakes, reads/writes,
//     guard evaluations, clock traffic, thread lifecycle) are instant ("i")
//     events.  The logical timeline has no wall clock, so the global event
//     sequence number is used as the microsecond timestamp: one seq == one
//     "microsecond" of logical time.
//
//   * JSONL — one self-contained JSON object per line per event, with all
//     ids resolved to names.  Greppable, streamable, and loadable by any
//     data tooling without a JSON-array parse of the whole file.
#pragma once

#include <functional>
#include <string>

#include "confail/events/trace.hpp"

namespace confail::obs {

/// Render `trace` as a Chrome trace_event JSON document (the
/// {"traceEvents": [...]} object form).
std::string toChromeTrace(const events::Trace& trace);

/// Emit `trace` as JSON Lines one event at a time: `line` receives each
/// event's object without its trailing newline.  The buffer is reused
/// between calls, so a consumer that writes lines out holds only one.
void forEachJsonlLine(const events::Trace& trace,
                      const std::function<void(const std::string&)>& line);

/// Render `trace` as JSON Lines: forEachJsonlLine's lines, each followed by
/// a newline.
std::string toJsonl(const events::Trace& trace);

/// Write either export to a file; returns false on I/O failure.
bool writeChromeTraceFile(const events::Trace& trace, const std::string& path);
bool writeJsonlFile(const events::Trace& trace, const std::string& path);

}  // namespace confail::obs
