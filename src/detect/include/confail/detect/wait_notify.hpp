// WaitNotifyCore: notification-protocol analyses for the T3/T5 rows of
// Table 1.
//
// Findings produced:
//   * WaitingForever       — a WaitBegin never followed by a wake for that
//                            thread/monitor before the trace ends (FF-T5:
//                            "no other thread calls notify whilst this
//                            thread is in the wait state").
//   * LostNotify           — a notify executed with an empty wait set on a
//                            monitor where some thread later waited forever
//                            (the notification preceded the wait and was
//                            lost; monitors have no memory).
//   * NotifySingleInsufficient — a notify() (not notifyAll) woke one of
//                            several waiters and at least one remaining
//                            waiter never woke (Table 1 FF-T5: "a notify is
//                            called rather than a notifyAll").
//   * GuardNotRechecked    — a woken thread proceeded without re-evaluating
//                            its wait-loop guard (an `if` around wait():
//                            vulnerable to premature wake, EF-T5).
//
// The core fuses the analysis's two passes into one incremental scan:
// the wait-set bookkeeping and the guard-recheck state machine both advance
// per event in feed().  Everything here is end-of-stream evidence ("never
// woken" is only decidable when the stream ends), so the protocol findings
// are assembled at finish(); guard findings are detected mid-stream but
// buffered so findings always emit in one kind order (LostNotify,
// NotifySingleInsufficient, WaitingForever, GuardNotRechecked).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class WaitNotifyCore final : public StreamCore {
 public:
  const char* name() const override { return "wait-notify"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  struct OpenWait {
    std::uint64_t seq;
  };
  struct PartialNotify {
    std::uint64_t seq;
    std::uint64_t waitersBefore;
  };

  // pass-1 bookkeeping: open waits and wake coverage per monitor
  std::map<std::pair<events::ThreadId, events::MonitorId>, OpenWait> open_;
  std::map<events::MonitorId, std::vector<std::uint64_t>> emptyNotifies_;
  std::map<events::MonitorId, std::vector<PartialNotify>> partialNotifies_;

  // pass-2 guard-recheck machine
  std::map<events::ThreadId, std::pair<std::uint64_t, events::MethodId>>
      pendingWake_;
  std::set<std::pair<events::ThreadId, events::MethodId>> reportedGuard_;
  std::vector<Finding> guardFindings_;  // buffered to keep the kind order
};

}  // namespace confail::detect
