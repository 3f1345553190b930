#include "confail/detect/unnecessary_sync.hpp"

#include <map>
#include <set>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::ThreadId;
using events::VarId;

void UnnecessarySyncCore::feed(const Event& e, std::vector<Finding>&) {
  switch (e.kind) {
    case EventKind::LockAcquire: {
      MonUse& mu = mons_[e.monitor];
      mu.lockers.insert(e.thread);
      if (!mu.seen) {
        mu.seen = true;
        mu.firstSeq = e.seq;
      }
      held_[e.thread].push_back(e.monitor);
      break;
    }
    case EventKind::LockRelease: {
      auto& stack = held_[e.thread];
      for (std::size_t i = stack.size(); i-- > 0;) {
        if (stack[i] == e.monitor) {
          stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      break;
    }
    case EventKind::WaitBegin:
    case EventKind::Notified:
    case EventKind::NotifyCall:
    case EventKind::NotifyAllCall:
      mons_[e.monitor].waitedOrNotified = true;
      break;
    case EventKind::Read:
    case EventKind::Write: {
      const VarId v = static_cast<VarId>(e.aux);
      varThreads_[v].insert(e.thread);
      for (MonitorId m : held_[e.thread]) mons_[m].varsUnder.insert(v);
      break;
    }
    default:
      break;
  }
}

void UnnecessarySyncCore::finish(const NameSource&, std::vector<Finding>& out) {
  for (const auto& [mon, mu] : mons_) {
    if (!mu.seen || mu.lockers.size() != 1 || mu.waitedOrNotified) continue;
    bool varsSingleThreaded = true;
    for (VarId v : mu.varsUnder) {
      varsSingleThreaded = varsSingleThreaded && varThreads_[v].size() <= 1;
    }
    if (!varsSingleThreaded) continue;
    Finding f;
    f.kind = FindingKind::UnnecessarySync;
    f.message =
        "monitor acquired by a single thread only, never waited on or "
        "notified, guarding no multi-thread data: synchronization is "
        "unnecessary overhead";
    f.thread = *mu.lockers.begin();
    f.monitor = mon;
    f.seq = mu.firstSeq;
    out.push_back(std::move(f));
  }
}

}  // namespace confail::detect
