// ProtocolDeviationCore: trace-level checks for deviations of the
// Figure-1 wait/notify protocol itself — the oracles the deviation-
// injection campaign (confail::inject) relies on for the Table 1 classes
// that leave no hang or race behind:
//
//   * MissedWait (FF-T3)      — a thread saw its blocking guard hold twice
//                               in the same method invocation without a
//                               wait() between the evaluations: the
//                               required wait never fired (a guard loop
//                               degenerated to a spin).
//   * SpuriousWakeup (EF-T3)  — a SpuriousWake event occurred.  confail
//                               only produces these when explicitly
//                               injected (Monitor::Options probability or
//                               an injection plan), so their presence in a
//                               trace is the deviation itself.
//   * PhantomNotify (EF-T5)   — a Notified (T5) consumed no notification
//                               permit: every notify() grants one wake and
//                               every notifyAll() as many wakes as there
//                               were waiters, all emitted atomically with
//                               the call; a Notified beyond that budget
//                               was manufactured, not requested.
//   * BargingAcquire (EF-T2)  — optional, off by default: a lock grant
//                               overtook an older entry-queue request.
//                               The JLS allows an arbitrary choice, so
//                               this flags *unfairness*, not a bug — it is
//                               the ground-truth oracle for the simulated
//                               broken-JVM EF-T2 deviation and only sound
//                               against FIFO-policy monitors.
//
// Every check is a running state machine whose evidence completes at the
// deviating event, so all findings emit inline from feed().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class ProtocolDeviationCore final : public StreamCore {
 public:
  struct Options {
    /// Flag non-FIFO grants (EF-T2 oracle).  Leave off for components
    /// configured with Lifo/Random policies — arbitrary selection is
    /// legal, and this check would report every exercise of it.
    bool flagBarging = false;
  };

  ProtocolDeviationCore() : ProtocolDeviationCore(Options()) {}
  explicit ProtocolDeviationCore(Options opts) : opts_(opts) {}

  const char* name() const override { return "protocol-deviation"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  Options opts_;
  // SpuriousWakeup (EF-T3): one finding per woken (thread, monitor).
  std::set<std::pair<events::ThreadId, events::MonitorId>> spuriousReported_;
  // PhantomNotify (EF-T5): permit counting per monitor — notify() grants one
  // wake, notifyAll() one per waiter present; both are emitted atomically
  // with the wakes they cause, so a running balance is exact.
  std::map<events::MonitorId, std::uint64_t> permits_;
  std::set<events::MonitorId> phantomReported_;
  // MissedWait (FF-T3): (method, seq) of a blocking-guard evaluation that
  // came out true; a wait() must follow before the same guard holds again.
  std::map<events::ThreadId, std::pair<events::MethodId, std::uint64_t>>
      pendingTrueGuard_;
  std::set<std::pair<events::ThreadId, events::MethodId>> missedReported_;
  // BargingAcquire (EF-T2, opt-in): arrival order of lock contenders per
  // monitor; a grant to anyone but the oldest arrival is an overtake.
  std::map<events::MonitorId, std::deque<events::ThreadId>> arrivals_;
  std::set<events::MonitorId> bargeReported_;
};

}  // namespace confail::detect
