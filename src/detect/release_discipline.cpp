#include "confail/detect/release_discipline.hpp"

#include <map>
#include <set>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::ThreadId;

void ReleaseDisciplineCore::feed(const Event& e, std::vector<Finding>& out) {
  ThreadState& ts = state_[e.thread];
  switch (e.kind) {
    case EventKind::MethodEnter:
      ts.frames.push_back(ThreadState::Frame{
          static_cast<events::MethodId>(e.aux), false, false});
      break;
    case EventKind::MethodExit:
      if (!ts.frames.empty()) ts.frames.pop_back();
      break;
    case EventKind::LockAcquire:
      ++ts.locksHeld;
      if (!ts.frames.empty()) {
        ts.frames.back().usedLock = true;
        ts.frames.back().releasedAll = false;
      }
      break;
    case EventKind::LockRelease:
      if (ts.locksHeld > 0) --ts.locksHeld;
      if (!ts.frames.empty() && ts.locksHeld == 0 &&
          ts.frames.back().usedLock) {
        ts.frames.back().releasedAll = true;
      }
      break;
    case EventKind::Read:
    case EventKind::Write: {
      if (ts.frames.empty()) break;
      const auto& f = ts.frames.back();
      if (f.usedLock && f.releasedAll && ts.locksHeld == 0 &&
          !reported_.count({e.thread, f.method})) {
        reported_.insert({e.thread, f.method});
        Finding fd;
        fd.kind = FindingKind::EarlyRelease;
        fd.message =
            "shared variable accessed after the method released its lock "
            "(premature lock release)";
        fd.thread = e.thread;
        fd.var = static_cast<events::VarId>(e.aux);
        fd.seq = e.seq;
        out.push_back(std::move(fd));
      }
      break;
    }
    default:
      break;
  }
}

void ReleaseDisciplineCore::finish(const NameSource&, std::vector<Finding>&) {}

}  // namespace confail::detect
