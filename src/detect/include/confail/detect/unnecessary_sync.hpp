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
// finish().
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class UnnecessarySyncCore final : public StreamCore {
 public:
  const char* name() const override { return "unnecessary-sync"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  struct MonUse {
    std::set<events::ThreadId> lockers;
    bool waitedOrNotified = false;
    std::uint64_t firstSeq = 0;
    bool seen = false;
    // variables accessed while this lock was held
    std::set<events::VarId> varsUnder;
  };

  std::map<events::MonitorId, MonUse> mons_;
  std::map<events::ThreadId, std::vector<events::MonitorId>> held_;
  std::map<events::VarId, std::set<events::ThreadId>> varThreads_;
};

}  // namespace confail::detect
