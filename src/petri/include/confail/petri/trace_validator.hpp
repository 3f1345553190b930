// Trace-against-model validation.
//
// Every monitor operation in confail emits the Figure-1 transition it
// fires, so a recorded execution trace *is* a candidate firing sequence of
// the thread/lock net.  The validators replay the trace through the net and
// check that each event was enabled — a machine-checked proof that the
// monitor substrate implements the paper's model (and a property test that
// runs over every component in the test suite).
//
// Two entry points:
//   * validateTraceAgainstModel — the historical single-monitor check:
//     project the trace onto one monitor, then replay the projection the
//     way replayTraceOnModel does, on a one-monitor free-notify net.
//   * replayTraceOnModel — the N x M replay behind the cross-check oracle:
//     the whole trace against a ThreadLockNet, all monitors at once,
//     collecting every visited marking.  Traces that use nested monitors
//     (a thread engaging a second monitor while inside one) are *out of
//     scope* of the Figure-1 protocol, not violations — the replay
//     classifies them via ModelReplay::inScope.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/petri/thread_lock_net.hpp"

namespace confail::petri {

struct ValidationResult {
  bool ok = true;
  std::size_t eventsChecked = 0;
  std::string message;
};

/// Validate the projection of `trace` onto monitor `mon` against the
/// one-monitor free-notify thread/lock net of the projection's traceShape
/// size.  Threads are mapped densely in order of first appearance;
/// `maxThreads` caps the net size.  A projection the replay finds out of
/// scope (a thread requesting the monitor while it already engages it) is
/// a violation: T1 is not enabled there.
///
/// SpuriousWake events are treated as T5 firings (a wake without a notify
/// is still the D->B move of the model).  Reentrant lock operations emit no
/// events, so the trace is already in single-token form.
ValidationResult validateTraceAgainstModel(const events::Trace& trace,
                                           events::MonitorId mon,
                                           unsigned maxThreads = 16);

/// Dense thread/monitor footprint of a trace's model events (first-
/// appearance order, the same order replayTraceOnModel maps by).
struct TraceShape {
  unsigned threads = 0;
  unsigned monitors = 0;
};

TraceShape traceShape(const events::Trace& trace);

struct ModelReplay {
  bool ok = true;       ///< the trace is a legal firing sequence of `tl`
  bool inScope = true;  ///< false: the trace left the Figure-1 protocol
  std::size_t eventsChecked = 0;
  std::string message;  ///< violation / out-of-scope explanation
  bool sawSpuriousWake = false;
  /// Every visited marking, tl.initial first; one entry per fired
  /// transition after that.  Valid up to the point ok/inScope went false.
  std::vector<Marking> markings;
};

/// Replay all model events of `trace` (every monitor, interleaved in
/// sequence order) against `tl`, which must be at least traceShape-sized.
/// Works for both notify models: on a gated net a Notified/SpuriousWake
/// event fires T5_{i<-j} for the unique thread j inside that monitor
/// (mutual exclusion makes j unique), and is a violation if no such j
/// exists.
ModelReplay replayTraceOnModel(const events::Trace& trace,
                               const ThreadLockNet& tl);

}  // namespace confail::petri
