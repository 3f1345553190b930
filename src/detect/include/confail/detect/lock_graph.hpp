// LockOrderCore: the LockTree/GoodLock-style deadlock-potential analysis
// referenced by the paper (JPF's runtime analysis; Table 1 testing notes
// for FF-T2: "static and dynamic analysis").
//
// An edge m1 -> m2 is recorded whenever a thread acquires m2 while holding
// m1.  A cycle among distinct threads' orders means some interleaving can
// deadlock — even if the recorded execution did not.
//
// LockOrderCore accumulates edges incrementally (state is O(monitors^2)
// worst case, independent of stream length); the cycle search runs once at
// finish(), which is also where monitor names are needed for the message.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class LockOrderCore final : public StreamCore {
 public:
  const char* name() const override { return "lock-order-graph"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  std::map<events::ThreadId, std::vector<events::MonitorId>>
      held_;  // acquisition order
  // edge -> (thread, seq) of the first witness
  std::map<std::pair<events::MonitorId, events::MonitorId>,
           std::pair<events::ThreadId, std::uint64_t>>
      edges_;
};

}  // namespace confail::detect
