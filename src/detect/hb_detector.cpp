#include "confail/detect/hb_detector.hpp"

#include <map>

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

HbCore::VarHistory& HbCore::varOf(VarId v) {
  auto it = vars_.find(v);
  if (it == vars_.end()) {
    if (opts_.maxVarHistory != 0 && vars_.size() >= opts_.maxVarHistory) {
      // Evict the least-recently-touched variable to stay bounded.
      auto oldest = touchOrder_.begin();
      vars_.erase(oldest->second);
      touchOrder_.erase(oldest);
      ++evictions_;
    }
    it = vars_.emplace(v, VarHistory{}).first;
  } else {
    touchOrder_.erase(it->second.lastTouch);
  }
  it->second.lastTouch = ++touchCounter_;
  touchOrder_.emplace(it->second.lastTouch, v);
  return it->second;
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
      // Child inherits the parent's history.
      VectorClock& parent = clockOf(e.thread);
      ThreadId child = static_cast<ThreadId>(e.aux);
      threadClock_[child].join(parent);
      threadClock_[child].bump(child);
      parent.bump(e.thread);
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
      VectorClock& vc = clockOf(e.thread);
      VarHistory& h = varOf(static_cast<VarId>(e.aux));
      if (h.lastWriter != events::kNoThread && h.lastWriter != e.thread &&
          h.lastWriteClock > vc.of(h.lastWriter)) {
        report(h, h.lastWriter, "write-read pair");
      }
      h.reads[e.thread] = vc.of(e.thread);
      break;
    }
    case EventKind::Write: {
      VectorClock& vc = clockOf(e.thread);
      VarHistory& h = varOf(static_cast<VarId>(e.aux));
      if (h.lastWriter != events::kNoThread && h.lastWriter != e.thread &&
          h.lastWriteClock > vc.of(h.lastWriter)) {
        report(h, h.lastWriter, "write-write pair");
      }
      for (const auto& [reader, clk] : h.reads) {
        if (reader != e.thread && clk > vc.of(reader)) {
          report(h, reader, "read-write pair");
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
