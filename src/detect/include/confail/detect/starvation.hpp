// StarvationCore: FF-T2's second failure mode — "one or more threads
// repeatedly acquire the lock being requested by this thread" under an
// unfair scheduler/JVM (Table 1: the JVM "is not required to be fair").
//
// A LockRequest that stays pending while other threads complete at least
// `grantThreshold` acquire/release cycles on the same monitor is reported
// as starvation.  A request still pending at the end of the trace with any
// intervening grants is reported as LockHeldForever/Starvation depending on
// whether the lock holder ever released.
//
// Threshold crossings are reported inline as they happen
// (complete evidence mid-stream); still-pending requests are reported at
// finish(), since "never granted" needs the end of the stream.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class StarvationCore final : public StreamCore {
 public:
  explicit StarvationCore(std::uint64_t grantThreshold = 50)
      : grantThreshold_(grantThreshold) {}

  const char* name() const override { return "starvation"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  struct Pending {
    std::uint64_t requestSeq;
    std::uint64_t grantsWhilePending = 0;
    bool reported = false;
  };

  std::uint64_t grantThreshold_;
  std::map<std::pair<events::ThreadId, events::MonitorId>, Pending> pending_;
  // Current holder per monitor and whether it ever released.
  std::map<events::MonitorId, events::ThreadId> holder_;
  std::map<events::MonitorId, std::uint64_t> releases_;
};

}  // namespace confail::detect
