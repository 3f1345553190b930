#include "confail/detect/unnecessary_sync.hpp"

#include <algorithm>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::VarId;

namespace {

/// Drop the innermost hold of `m` from a thread's lock stack.
void releaseInnermost(std::vector<MonitorId>& stack, MonitorId m) {
  for (std::size_t i = stack.size(); i-- > 0;) {
    if (stack[i] == m) {
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace

void UnnecessarySyncCore::feed(const Event& e, std::vector<Finding>&) {
  switch (e.kind) {
    case EventKind::LockAcquire: {
      MonUse& mu = mons_[e.monitor];
      if (!mu.seen) {
        mu.seen = true;
        mu.locker = e.thread;
        mu.firstSeq = e.seq;
      } else if (mu.locker != e.thread) {
        mu.disqualified = true;
      }
      held_[e.thread].push_back(e.monitor);
      break;
    }
    case EventKind::LockRelease:
      releaseInnermost(held_[e.thread], e.monitor);
      break;
    case EventKind::WaitBegin:  // wait releases the object lock
      releaseInnermost(held_[e.thread], e.monitor);
      disqualify(e.monitor);
      break;
    case EventKind::Notified:
    case EventKind::NotifyCall:
    case EventKind::NotifyAllCall:
      disqualify(e.monitor);
      break;
    case EventKind::Read:
    case EventKind::Write: {
      VarUse& v = vars_[static_cast<VarId>(e.aux)];
      if (!v.touched) {
        v.touched = true;
        v.first = e.thread;
      } else if (!v.shared && v.first != e.thread) {
        v.shared = true;
        for (MonitorId m : v.guards) disqualify(m);
        std::vector<MonitorId>().swap(v.guards);
      }
      for (MonitorId m : held_[e.thread]) {
        if (mons_[m].disqualified) continue;
        if (v.shared) {
          disqualify(m);
        } else if (std::find(v.guards.begin(), v.guards.end(), m) ==
                   v.guards.end()) {
          v.guards.push_back(m);
        }
      }
      break;
    }
    default:
      break;
  }
}

void UnnecessarySyncCore::finish(const NameSource&, std::vector<Finding>& out) {
  mons_.forEach([&out](MonitorId mon, const MonUse& mu) {
    if (!mu.seen || mu.disqualified) return;
    Finding f;
    f.kind = FindingKind::UnnecessarySync;
    f.message =
        "monitor acquired by a single thread only, never waited on or "
        "notified, guarding no multi-thread data: synchronization is "
        "unnecessary overhead";
    f.thread = mu.locker;
    f.monitor = mon;
    f.seq = mu.firstSeq;
    out.push_back(std::move(f));
  });
}

}  // namespace confail::detect
