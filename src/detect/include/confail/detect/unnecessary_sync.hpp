// UnnecessarySyncCore: EF-T1 — "program logic accesses critical section"
// when it does not need to (Table 1: "No more than one thread accesses
// shared resources.  The thread is not required to wait or notify other
// threads.  Consequence: unnecessary synchronization" — an inefficiency,
// not a correctness failure).
//
// A monitor is flagged when, over the whole trace, (a) only one thread ever
// acquired it, (b) it was never waited on or notified, and (c) every shared
// variable accessed under it was only ever touched by that same thread.
//
// UnnecessarySyncCore accumulates per-monitor usage in feed(); the whole-run
// critique is inherently end-of-stream evidence, so all findings emit at
// finish().  Each condition, once broken, stays broken, so feed() records
// it as one sticky `disqualified` bit per monitor: a variable remembers the
// monitors it was accessed under only until a second thread touches it,
// and then disqualifies them.  Per-event cost is linear in the accessor's
// held locks and independent of stream length; a wait releases its
// monitor like a release does.
#pragma once

#include <cstdint>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/support/id_table.hpp"

namespace confail::detect {

class UnnecessarySyncCore final : public StreamCore {
 public:
  const char* name() const override { return "unnecessary-sync"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  struct MonUse {
    bool seen = false;  // acquired at least once
    /// A second locker, a wait or notify, or a variable accessed under it
    /// that another thread also touched: never flagged.
    bool disqualified = false;
    events::ThreadId locker = events::kNoThread;  // the first locker
    std::uint64_t firstSeq = 0;
  };
  struct VarUse {
    bool touched = false;
    bool shared = false;  // accessed by more than one thread
    events::ThreadId first = events::kNoThread;
    /// Monitors held across its accesses while not shared (no repeats).
    std::vector<events::MonitorId> guards;
  };

  void disqualify(events::MonitorId m) { mons_[m].disqualified = true; }

  IdTable<MonUse> mons_;
  IdTable<std::vector<events::MonitorId>> held_;  // per thread, in order
  IdTable<VarUse> vars_;
};

}  // namespace confail::detect
