#include "confail/detect/hb_detector.hpp"

#include <algorithm>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::ThreadId;
using events::VarId;

VectorClock& HbCore::clockOf(ThreadId t) {
  VectorClock& vc = threadClock_[t];
  if (vc.of(t) == 0) vc.bump(t);  // every thread starts at its own epoch 1
  return vc;
}

// Neighbours are looked up with find(), which never grows the table, so
// `h` stays valid throughout.
void HbCore::unlink(VarId v, const VarHistory& h) {
  if (v == oldest_) {
    oldest_ = h.newer;
  } else {
    vars_.find(h.older)->newer = h.newer;
  }
  if (v == newest_) {
    newest_ = h.older;
  } else {
    vars_.find(h.newer)->older = h.older;
  }
  --live_;
}

void HbCore::append(VarId v, VarHistory& h) {
  if (live_ == 0) {
    oldest_ = v;
  } else {
    vars_.find(newest_)->newer = v;
    h.older = newest_;
  }
  newest_ = v;
  h.live = true;
  ++live_;
}

HbCore::VarHistory& HbCore::varOf(VarId v) {
  VarHistory& h = vars_[v];
  if (opts_.maxVarHistory == 0) return h;
  if (h.live) {
    unlink(v, h);
  } else if (live_ >= opts_.maxVarHistory) {
    // Evict the least-recently-touched variable to stay bounded.
    const VarId victim = oldest_;
    unlink(victim, *vars_.find(victim));
    vars_.erase(victim);
    ++evictions_;
  }
  append(v, h);
  return h;
}

void HbCore::feed(const Event& e, std::vector<Finding>& out) {
  auto report = [&](VarHistory& h, ThreadId other, const char* what) {
    if (h.reported) return;
    h.reported = true;
    Finding f;
    f.kind = FindingKind::DataRace;
    f.message = std::string("unordered ") + what + " (happens-before violation)";
    f.thread = e.thread;
    f.thread2 = other;
    f.var = static_cast<VarId>(e.aux);
    f.seq = e.seq;
    out.push_back(std::move(f));
  };

  switch (e.kind) {
    case EventKind::ThreadSpawn: {
      // Child inherits the parent's history.  The parent's clock is copied
      // out first: creating the child's slot may move the parent's.
      spawnScratch_ = clockOf(e.thread);
      const ThreadId child = static_cast<ThreadId>(e.aux);
      VectorClock& vc = threadClock_[child];
      vc.join(spawnScratch_);
      vc.bump(child);
      threadClock_[e.thread].bump(e.thread);
      break;
    }
    case EventKind::LockAcquire:
    case EventKind::Notified:
      clockOf(e.thread).join(monitorClock_[e.monitor]);
      break;
    case EventKind::LockRelease:
    case EventKind::WaitBegin: {
      VectorClock& vc = clockOf(e.thread);
      monitorClock_[e.monitor].join(vc);
      vc.bump(e.thread);
      break;
    }
    case EventKind::Read: {
      const VectorClock& vc = clockOf(e.thread);
      VarHistory& h = varOf(static_cast<VarId>(e.aux));
      if (h.lastWriter != events::kNoThread && h.lastWriter != e.thread &&
          h.lastWriteClock > vc.of(h.lastWriter)) {
        report(h, h.lastWriter, "write-read pair");
      }
      const std::uint64_t now = vc.of(e.thread);
      auto it = std::lower_bound(
          h.reads.begin(), h.reads.end(), e.thread,
          [](const ReadEpoch& r, ThreadId t) { return r.reader < t; });
      if (it != h.reads.end() && it->reader == e.thread) {
        it->clock = now;
      } else {
        h.reads.insert(it, ReadEpoch{e.thread, now});
      }
      break;
    }
    case EventKind::Write: {
      const VectorClock& vc = clockOf(e.thread);
      VarHistory& h = varOf(static_cast<VarId>(e.aux));
      if (h.lastWriter != events::kNoThread && h.lastWriter != e.thread &&
          h.lastWriteClock > vc.of(h.lastWriter)) {
        report(h, h.lastWriter, "write-write pair");
      }
      for (const ReadEpoch& r : h.reads) {
        if (r.reader != e.thread && r.clock > vc.of(r.reader)) {
          report(h, r.reader, "read-write pair");
        }
      }
      h.lastWriter = e.thread;
      h.lastWriteClock = vc.of(e.thread);
      h.reads.clear();
      break;
    }
    default:
      break;
  }
}

void HbCore::finish(const NameSource&, std::vector<Finding>&) {}

}  // namespace confail::detect
