#include "confail/petri/trace_validator.hpp"

#include <span>
#include <sstream>
#include <unordered_map>

#include "confail/support/assert.hpp"

namespace confail::petri {

using events::Event;
using events::EventKind;

namespace {

bool isReplayEvent(EventKind k) {
  return events::isModelTransition(k) || k == EventKind::SpuriousWake;
}

TraceShape shapeOf(std::span<const Event> events) {
  std::unordered_map<events::ThreadId, unsigned> threads;
  std::unordered_map<events::MonitorId, unsigned> monitors;
  for (const Event& e : events) {
    if (!isReplayEvent(e.kind)) continue;
    threads.emplace(e.thread, static_cast<unsigned>(threads.size()));
    monitors.emplace(e.monitor, static_cast<unsigned>(monitors.size()));
  }
  return {static_cast<unsigned>(threads.size()),
          static_cast<unsigned>(monitors.size())};
}

/// replayTraceOnModel over `events`; the visited markings are kept only
/// when `keepMarkings` (one per event: a validation does not read them).
ModelReplay replayEvents(std::span<const Event> events,
                         const ThreadLockNet& tl, bool keepMarkings) {
  ModelReplay rep;
  std::unordered_map<events::ThreadId, unsigned> threadIndex;
  std::unordered_map<events::MonitorId, unsigned> monitorIndex;
  Marking m = tl.initial;
  if (keepMarkings) rep.markings.push_back(m);

  const auto fail = [&](const Event& e, const std::string& why) {
    std::ostringstream os;
    os << "event seq=" << e.seq << " (" << events::kindName(e.kind)
       << " by thread " << e.thread << " on monitor " << e.monitor << ") "
       << why;
    rep.ok = false;
    rep.message = os.str();
  };

  for (const Event& e : events) {
    if (!isReplayEvent(e.kind)) continue;
    auto ti = threadIndex.emplace(e.thread,
                                  static_cast<unsigned>(threadIndex.size()));
    auto mi = monitorIndex.emplace(e.monitor,
                                   static_cast<unsigned>(monitorIndex.size()));
    const unsigned i = ti.first->second;
    const unsigned mon = mi.first->second;
    if (i >= tl.threads || mon >= tl.monitors) {
      rep.inScope = false;
      rep.message = "trace uses more threads/monitors than the net";
      return rep;
    }
    if (e.kind == EventKind::SpuriousWake) rep.sawSpuriousWake = true;

    TransitionId t = 0;
    switch (e.kind) {
      case EventKind::LockRequest:
        // A request while the thread is not in A means it already engages
        // a monitor — nested synchronized blocks, which the Figure-1
        // protocol does not model (that is the lock-order-deadlock world).
        // On a one-monitor projection it is a second request for the same
        // monitor, which T1 does not allow either.
        if (m[tl.A[i]] == 0) {
          rep.inScope = false;
          std::ostringstream os;
          os << "thread " << e.thread << " requests monitor " << e.monitor
             << " while it already engages a monitor (nested or repeated"
                " requests are outside the Figure-1 protocol)";
          rep.message = os.str();
          return rep;
        }
        t = tl.T1[i][mon];
        break;
      case EventKind::LockAcquire: t = tl.T2[i][mon]; break;
      case EventKind::WaitBegin: t = tl.T3[i][mon]; break;
      case EventKind::LockRelease: t = tl.T4[i][mon]; break;
      case EventKind::Notified:
      case EventKind::SpuriousWake: {
        if (tl.model == NotifyModel::Free) {
          t = tl.T5free[i][mon];
          break;
        }
        // Gated: the waker is whichever thread holds the monitor right
        // now; the lock invariant makes it unique.
        unsigned j = tl.threads;
        for (unsigned k = 0; k < tl.threads; ++k) {
          if (k != i && m[tl.C[k][mon]] != 0) {
            j = k;
            break;
          }
        }
        if (j == tl.threads) {
          fail(e, "wakes with no other thread inside the monitor (gated T5"
                  " has no enabled instance)");
          return rep;
        }
        t = tl.T5gated[mon][i][j];
        break;
      }
      default: continue;
    }
    if (!tl.net.enabled(t, m)) {
      fail(e, "fires " + tl.net.transitionName(t) +
                  " which is not enabled in " + tl.net.renderMarking(m));
      return rep;
    }
    m = tl.net.fire(t, m);
    if (keepMarkings) rep.markings.push_back(m);
    ++rep.eventsChecked;
  }
  return rep;
}

}  // namespace

ValidationResult validateTraceAgainstModel(const events::Trace& trace,
                                           events::MonitorId mon,
                                           unsigned maxThreads) {
  ValidationResult result;
  const std::vector<Event> events = trace.monitorProjection(mon);
  const TraceShape shape = shapeOf(events);
  if (shape.threads > maxThreads) {
    result.ok = false;
    result.message = "more threads than maxThreads";
    return result;
  }
  if (shape.threads == 0) return result;  // nothing to check
  const ModelReplay rep = replayEvents(
      events, buildThreadLockNet(shape.threads, NotifyModel::Free),
      /*keepMarkings=*/false);
  // One monitor: a request from a thread already engaging it (the replay's
  // out-of-scope case) is a plain violation, T1 not being enabled.
  result.ok = rep.ok && rep.inScope;
  result.eventsChecked = rep.eventsChecked;
  result.message = rep.message;
  return result;
}

TraceShape traceShape(const events::Trace& trace) {
  return shapeOf(trace.events());
}

ModelReplay replayTraceOnModel(const events::Trace& trace,
                               const ThreadLockNet& tl) {
  return replayEvents(trace.events(), tl, /*keepMarkings=*/true);
}

}  // namespace confail::petri
