#include "confail/detect/lockset.hpp"

#include <algorithm>
#include <vector>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::ThreadId;
using events::VarId;

void LocksetCore::feed(const Event& e, std::vector<Finding>& out) {
  switch (e.kind) {
    case EventKind::LockAcquire:
      held_[e.thread].insert(e.monitor);
      break;
    case EventKind::LockRelease:
    case EventKind::WaitBegin:  // wait releases the object lock
      held_[e.thread].erase(e.monitor);
      break;
    case EventKind::Read:
    case EventKind::Write: {
      const bool isWrite = e.kind == EventKind::Write;
      const VarId v = static_cast<VarId>(e.aux);
      VarInfo& info = vars_[v];
      const LockSet& locks = held_[e.thread];

      switch (info.state) {
        case VarState::Virgin:
          info.state = VarState::Exclusive;
          info.owner = e.thread;
          info.firstThread = e.thread;
          break;
        case VarState::Exclusive:
          if (e.thread == info.owner) break;  // still single-threaded
          info.state = isWrite ? VarState::SharedModified : VarState::Shared;
          info.candidates = locks;
          info.candidatesInitialized = true;
          break;
        case VarState::Shared: {
          LockSet refined;
          std::set_intersection(info.candidates.begin(), info.candidates.end(),
                                locks.begin(), locks.end(),
                                std::inserter(refined, refined.begin()));
          info.candidates = std::move(refined);
          if (isWrite) info.state = VarState::SharedModified;
          break;
        }
        case VarState::SharedModified: {
          LockSet refined;
          std::set_intersection(info.candidates.begin(), info.candidates.end(),
                                locks.begin(), locks.end(),
                                std::inserter(refined, refined.begin()));
          info.candidates = std::move(refined);
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

void LocksetCore::finish(const NameSource&, std::vector<Finding>&) {}

}  // namespace confail::detect
