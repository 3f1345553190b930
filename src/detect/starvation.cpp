#include "confail/detect/starvation.hpp"

#include <map>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::ThreadId;

void StarvationCore::feed(const Event& e, std::vector<Finding>& out) {
  switch (e.kind) {
    case EventKind::LockRequest:
      pending_[{e.thread, e.monitor}] = Pending{e.seq};
      break;
    case EventKind::LockAcquire: {
      pending_.erase({e.thread, e.monitor});
      holder_[e.monitor] = e.thread;
      for (auto& [key, p] : pending_) {
        if (key.second != e.monitor || p.reported) continue;
        if (++p.grantsWhilePending >= grantThreshold_) {
          p.reported = true;
          Finding f;
          f.kind = FindingKind::Starvation;
          f.message = "lock request starved: " +
                      std::to_string(p.grantsWhilePending) +
                      " grants to other threads while this request pended";
          f.thread = key.first;
          f.thread2 = e.thread;
          f.monitor = e.monitor;
          f.seq = p.requestSeq;
          out.push_back(std::move(f));
        }
      }
      break;
    }
    case EventKind::LockRelease:
    case EventKind::WaitBegin:
      holder_.erase(e.monitor);
      ++releases_[e.monitor];
      break;
    default:
      break;
  }
}

void StarvationCore::finish(const NameSource&, std::vector<Finding>& out) {
  // Requests still pending at the end of the trace.
  for (const auto& [key, p] : pending_) {
    if (p.reported) continue;
    auto h = holder_.find(key.second);
    if (h != holder_.end()) {
      Finding f;
      f.kind = FindingKind::LockHeldForever;
      f.message = "lock request never granted: holder never released";
      f.thread = key.first;
      f.thread2 = h->second;
      f.monitor = key.second;
      f.seq = p.requestSeq;
      out.push_back(std::move(f));
    } else if (p.grantsWhilePending > 0) {
      Finding f;
      f.kind = FindingKind::Starvation;
      f.message = "lock request pending at end of run after " +
                  std::to_string(p.grantsWhilePending) + " grants to others";
      f.thread = key.first;
      f.monitor = key.second;
      f.seq = p.requestSeq;
      out.push_back(std::move(f));
    }
  }
}

}  // namespace confail::detect
