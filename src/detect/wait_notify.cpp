#include "confail/detect/wait_notify.hpp"

#include <map>
#include <set>

namespace confail::detect {

using events::Event;
using events::EventKind;
using events::MonitorId;
using events::ThreadId;

void WaitNotifyCore::feed(const Event& e, std::vector<Finding>&) {
  // --- wait-set bookkeeping -------------------------------------------------
  switch (e.kind) {
    case EventKind::WaitBegin:
      open_[{e.thread, e.monitor}] = OpenWait{e.seq};
      break;
    case EventKind::Notified:
    case EventKind::SpuriousWake:
      open_.erase({e.thread, e.monitor});
      break;
    case EventKind::NotifyCall:
      if (e.aux == 0) {
        emptyNotifies_[e.monitor].push_back(e.seq);
      } else if (e.aux > 1) {
        partialNotifies_[e.monitor].push_back(PartialNotify{e.seq, e.aux});
      }
      break;
    case EventKind::NotifyAllCall:
      if (e.aux == 0) emptyNotifies_[e.monitor].push_back(e.seq);
      break;
    default:
      break;
  }

  // --- guard re-check discipline --------------------------------------------
  // After a Notified/SpuriousWake, the next *relevant* event of that thread
  // inside the same method should be a GuardEval (the wait-loop condition).
  // Seeing a different concurrency event or the method exit first means the
  // component proceeded without re-testing its guard.
  auto it = pendingWake_.find(e.thread);
  if (it != pendingWake_.end()) {
    const auto [wakeSeq, method] = it->second;
    switch (e.kind) {
      case EventKind::GuardEval:
        pendingWake_.erase(it);  // disciplined: guard re-evaluated
        break;
      case EventKind::LockAcquire:
      case EventKind::Notified:
      case EventKind::SpuriousWake:
        break;  // part of the wake-up protocol itself
      case EventKind::Read:
        // Evaluating the guard reads the shared state first; reads are
        // not evidence of proceeding past the guard.  (A mutant that
        // skips the re-check still trips on its first Write/wait/exit.)
        break;
      default: {
        if (!reportedGuard_.count({e.thread, method})) {
          reportedGuard_.insert({e.thread, method});
          Finding f;
          f.kind = FindingKind::GuardNotRechecked;
          f.message =
              "thread proceeded after a wake without re-evaluating its "
              "wait guard (if-around-wait instead of while)";
          f.thread = e.thread;
          f.monitor = e.monitor;
          f.seq = wakeSeq;
          guardFindings_.push_back(std::move(f));
        }
        pendingWake_.erase(it);
        break;
      }
    }
  }
  if (e.kind == EventKind::Notified || e.kind == EventKind::SpuriousWake) {
    pendingWake_[e.thread] = {e.seq, e.method};
  }
}

void WaitNotifyCore::finish(const NameSource&, std::vector<Finding>& out) {
  std::set<MonitorId> monitorsWithHungWaiters;
  std::vector<Finding> waitingForever;
  for (const auto& [key, ow] : open_) {
    Finding f;
    f.kind = FindingKind::WaitingForever;
    f.message = "wait was never followed by a notification";
    f.thread = key.first;
    f.monitor = key.second;
    f.seq = ow.seq;
    monitorsWithHungWaiters.insert(key.second);
    waitingForever.push_back(std::move(f));
  }

  // LostNotify: an empty-wait-set notify on a monitor that later had a
  // hung waiter whose wait started after that notify.
  for (const auto& [mon, seqs] : emptyNotifies_) {
    if (!monitorsWithHungWaiters.count(mon)) continue;
    for (const auto& [key, ow] : open_) {
      if (key.second != mon) continue;
      for (std::uint64_t nseq : seqs) {
        if (nseq < ow.seq) {
          Finding f;
          f.kind = FindingKind::LostNotify;
          f.message =
              "notify executed before the wait began (empty wait set): the "
              "notification was lost";
          f.thread = key.first;
          f.monitor = mon;
          f.seq = nseq;
          out.push_back(std::move(f));
          break;
        }
      }
    }
  }

  // NotifySingleInsufficient: notify() with >1 waiters on a monitor where
  // some waiter hung.
  for (const auto& [mon, calls] : partialNotifies_) {
    if (!monitorsWithHungWaiters.count(mon)) continue;
    for (const PartialNotify& pn : calls) {
      Finding f;
      f.kind = FindingKind::NotifySingleInsufficient;
      f.message = "notify() woke one of " + std::to_string(pn.waitersBefore) +
                  " waiters; notifyAll() was needed (a waiter hung)";
      f.monitor = mon;
      f.seq = pn.seq;
      out.push_back(std::move(f));
      break;  // one finding per monitor suffices
    }
  }

  out.insert(out.end(), waitingForever.begin(), waitingForever.end());
  out.insert(out.end(), guardFindings_.begin(), guardFindings_.end());
}

}  // namespace confail::detect
