// Test-only reference oracles: the map-based HbCore and LocksetCore the
// flat cores in src/detect replaced.  They keep every thread, monitor and
// variable in std::map / std::set nodes, so they are slow but obviously
// shaped like the algorithms; flat_cores_test.cpp holds the flat cores to
// their findings and eviction counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/detect/vector_clock.hpp"
#include "confail/events/event.hpp"

namespace confail::detect::reference {

/// Vector-clock happens-before with a per-variable map of readers and an
/// LRU kept as a map from touch counter to variable.
class MapHbCore {
 public:
  explicit MapHbCore(std::size_t maxVarHistory = 0)
      : maxVarHistory_(maxVarHistory) {}

  std::uint64_t evictions() const { return evictions_; }

  void feed(const events::Event& e, std::vector<Finding>& out) {
    using events::EventKind;
    using events::ThreadId;
    auto report = [&](VarHistory& h, ThreadId other, const char* what) {
      if (h.reported) return;
      h.reported = true;
      Finding f;
      f.kind = FindingKind::DataRace;
      f.message =
          std::string("unordered ") + what + " (happens-before violation)";
      f.thread = e.thread;
      f.thread2 = other;
      f.var = static_cast<events::VarId>(e.aux);
      f.seq = e.seq;
      out.push_back(std::move(f));
    };
    switch (e.kind) {
      case EventKind::ThreadSpawn: {
        VectorClock& parent = clockOf(e.thread);
        const ThreadId child = static_cast<ThreadId>(e.aux);
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
        VarHistory& h = varOf(static_cast<events::VarId>(e.aux));
        if (h.lastWriter != events::kNoThread && h.lastWriter != e.thread &&
            h.lastWriteClock > vc.of(h.lastWriter)) {
          report(h, h.lastWriter, "write-read pair");
        }
        h.reads[e.thread] = vc.of(e.thread);
        break;
      }
      case EventKind::Write: {
        VectorClock& vc = clockOf(e.thread);
        VarHistory& h = varOf(static_cast<events::VarId>(e.aux));
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

 private:
  struct VarHistory {
    events::ThreadId lastWriter = events::kNoThread;
    std::uint64_t lastWriteClock = 0;
    std::map<events::ThreadId, std::uint64_t> reads;
    bool reported = false;
    std::uint64_t lastTouch = 0;
  };

  VectorClock& clockOf(events::ThreadId t) {
    VectorClock& vc = threadClock_[t];
    if (vc.of(t) == 0) vc.bump(t);
    return vc;
  }

  VarHistory& varOf(events::VarId v) {
    auto it = vars_.find(v);
    if (it == vars_.end()) {
      if (maxVarHistory_ != 0 && vars_.size() >= maxVarHistory_) {
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

  std::size_t maxVarHistory_;
  std::map<events::ThreadId, VectorClock> threadClock_;
  std::map<events::MonitorId, VectorClock> monitorClock_;
  std::map<events::VarId, VarHistory> vars_;
  std::map<std::uint64_t, events::VarId> touchOrder_;
  std::uint64_t touchCounter_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Eraser over std::set locksets.
class MapLocksetCore {
 public:
  void feed(const events::Event& e, std::vector<Finding>& out) {
    using events::EventKind;
    switch (e.kind) {
      case EventKind::LockAcquire:
        held_[e.thread].insert(e.monitor);
        break;
      case EventKind::LockRelease:
      case EventKind::WaitBegin:
        held_[e.thread].erase(e.monitor);
        break;
      case EventKind::Read:
      case EventKind::Write: {
        const bool isWrite = e.kind == EventKind::Write;
        const events::VarId v = static_cast<events::VarId>(e.aux);
        VarInfo& info = vars_[v];
        const LockSet& locks = held_[e.thread];
        switch (info.state) {
          case VarState::Virgin:
            info.state = VarState::Exclusive;
            info.owner = e.thread;
            info.firstThread = e.thread;
            break;
          case VarState::Exclusive:
            if (e.thread == info.owner) break;
            info.state = isWrite ? VarState::SharedModified : VarState::Shared;
            info.candidates = locks;
            info.candidatesInitialized = true;
            break;
          case VarState::Shared:
          case VarState::SharedModified: {
            LockSet refined;
            std::set_intersection(info.candidates.begin(),
                                  info.candidates.end(), locks.begin(),
                                  locks.end(),
                                  std::inserter(refined, refined.begin()));
            info.candidates = std::move(refined);
            if (isWrite) info.state = VarState::SharedModified;
            break;
          }
        }
        if (info.state == VarState::SharedModified &&
            info.candidatesInitialized && info.candidates.empty() &&
            !info.reported) {
          info.reported = true;
          Finding f;
          f.kind = FindingKind::DataRace;
          f.message =
              "no lock protects all accesses (candidate lockset empty at a " +
              std::string(isWrite ? "write" : "read") + ")";
          f.thread = e.thread;
          f.thread2 = info.firstThread;
          f.var = v;
          f.seq = e.seq;
          out.push_back(std::move(f));
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  using LockSet = std::set<events::MonitorId>;
  enum class VarState : std::uint8_t {
    Virgin,
    Exclusive,
    Shared,
    SharedModified
  };
  struct VarInfo {
    VarState state = VarState::Virgin;
    events::ThreadId owner = events::kNoThread;
    LockSet candidates;
    bool candidatesInitialized = false;
    bool reported = false;
    events::ThreadId firstThread = events::kNoThread;
  };
  std::map<events::ThreadId, LockSet> held_;
  std::map<events::VarId, VarInfo> vars_;
};

}  // namespace confail::detect::reference
