#include "confail/detect/protocol_deviation.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MethodId;
using events::MonitorId;
using events::ThreadId;

void ProtocolDeviationCore::feed(const Event& e, std::vector<Finding>& out) {
  auto enqueueArrival = [&](MonitorId m, ThreadId t) {
    std::deque<ThreadId>& q = arrivals_[m];
    if (std::find(q.begin(), q.end(), t) == q.end()) q.push_back(t);
  };

  switch (e.kind) {
    case EventKind::SpuriousWake: {
      if (spuriousReported_.insert({e.thread, e.monitor}).second) {
        Finding f;
        f.kind = FindingKind::SpuriousWakeup;
        f.message = "waiter woke spuriously (no notification was executed)";
        f.thread = e.thread;
        f.monitor = e.monitor;
        f.seq = e.seq;
        out.push_back(std::move(f));
      }
      if (opts_.flagBarging) enqueueArrival(e.monitor, e.thread);
      break;
    }
    case EventKind::NotifyCall:
      if (e.aux > 0) permits_[e.monitor] += 1;
      break;
    case EventKind::NotifyAllCall:
      permits_[e.monitor] += e.aux;
      break;
    case EventKind::Notified: {
      std::uint64_t& p = permits_[e.monitor];
      if (p == 0) {
        if (phantomReported_.insert(e.monitor).second) {
          Finding f;
          f.kind = FindingKind::PhantomNotify;
          f.message =
              "waiter observed a notification no notify()/notifyAll() "
              "call granted";
          f.thread = e.thread;
          f.monitor = e.monitor;
          f.seq = e.seq;
          out.push_back(std::move(f));
        }
      } else {
        --p;
      }
      if (opts_.flagBarging) enqueueArrival(e.monitor, e.thread);
      break;
    }
    case EventKind::GuardEval: {
      const MethodId method = static_cast<MethodId>(e.aux);
      auto it = pendingTrueGuard_.find(e.thread);
      if (e.flag) {
        if (it != pendingTrueGuard_.end() && it->second.first == method) {
          if (missedReported_.insert({e.thread, method}).second) {
            Finding f;
            f.kind = FindingKind::MissedWait;
            f.message =
                "blocking guard held twice with no wait() between the "
                "evaluations (the wait was skipped; the guard loop spins)";
            f.thread = e.thread;
            f.seq = it->second.second;
            out.push_back(std::move(f));
          }
        } else {
          pendingTrueGuard_[e.thread] = {method, e.seq};
        }
      } else if (it != pendingTrueGuard_.end() && it->second.first == method) {
        pendingTrueGuard_.erase(it);
      }
      break;
    }
    case EventKind::WaitBegin:
      pendingTrueGuard_.erase(e.thread);
      break;
    case EventKind::LockRequest:
      if (opts_.flagBarging) enqueueArrival(e.monitor, e.thread);
      break;
    case EventKind::LockAcquire: {
      if (!opts_.flagBarging) break;
      auto qit = arrivals_.find(e.monitor);
      if (qit == arrivals_.end()) break;
      std::deque<ThreadId>& q = qit->second;
      auto pos = std::find(q.begin(), q.end(), e.thread);
      if (pos == q.end()) break;  // re-entrant or untracked: ignore
      if (pos != q.begin() && bargeReported_.insert(e.monitor).second) {
        Finding f;
        f.kind = FindingKind::BargingAcquire;
        f.message = "lock grant overtook an older entry-queue request "
                    "(non-FIFO grant)";
        f.thread = e.thread;
        f.thread2 = q.front();
        f.monitor = e.monitor;
        f.seq = e.seq;
        out.push_back(std::move(f));
      }
      q.erase(pos);
      break;
    }
    default:
      break;
  }
}

void ProtocolDeviationCore::finish(const NameSource&, std::vector<Finding>&) {}

}  // namespace confail::detect
