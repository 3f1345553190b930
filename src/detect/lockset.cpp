#include "confail/detect/lockset.hpp"

#include <algorithm>
#include <vector>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::VarId;

namespace {

/// a := a ∩ b, both sorted without repeats.
void intersectInPlace(std::vector<MonitorId>& a,
                      const std::vector<MonitorId>& b) {
  auto out = a.begin();
  auto j = b.begin();
  for (auto i = a.begin(); i != a.end() && j != b.end();) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      *out++ = *i++;
      ++j;
    }
  }
  a.erase(out, a.end());
}

}  // namespace

void LocksetCore::feed(const Event& e, std::vector<Finding>& out) {
  switch (e.kind) {
    case EventKind::LockAcquire: {
      LockSet& held = held_[e.thread];
      const auto it = std::lower_bound(held.begin(), held.end(), e.monitor);
      if (it == held.end() || *it != e.monitor) held.insert(it, e.monitor);
      break;
    }
    case EventKind::LockRelease:
    case EventKind::WaitBegin: {  // wait releases the object lock
      LockSet& held = held_[e.thread];
      const auto it = std::lower_bound(held.begin(), held.end(), e.monitor);
      if (it != held.end() && *it == e.monitor) held.erase(it);
      break;
    }
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
        case VarState::Shared:
          intersectInPlace(info.candidates, locks);
          if (isWrite) info.state = VarState::SharedModified;
          break;
        case VarState::SharedModified:
          intersectInPlace(info.candidates, locks);
          break;
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
