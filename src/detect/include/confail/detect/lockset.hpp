// LocksetCore: the Eraser algorithm (Savage et al. 1997, the paper's
// reference [24]) over confail traces.
//
// Detects FF-T1 interference ("race condition or data race" in Table 1):
// a shared variable written by multiple threads with no single lock held
// consistently across all accesses.
//
// The classic state machine per variable:
//   Virgin -> Exclusive(first thread) -> Shared (second thread reads)
//                                     -> SharedModified (second thread writes)
// The candidate lockset C(v) is initialized at the first access by a second
// thread and refined (intersected with the accessor's held locks) on every
// subsequent access.  An empty C(v) in SharedModified state is a race.
//
// The core is incremental: a rolling lock-set per thread plus
// the per-variable state machine, fed one event at a time.  Every finding's
// evidence is complete at the triggering access, so nothing waits for
// finish() and the core runs unchanged over an unbounded event stream.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class LocksetCore final : public StreamCore {
 public:
  const char* name() const override { return "lockset(Eraser)"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  using LockSet = std::set<events::MonitorId>;

  enum class VarState : std::uint8_t {
    Virgin,
    Exclusive,
    Shared,
    SharedModified
  };

  struct VarInfo {
    VarState state = VarState::Virgin;
    events::ThreadId owner = events::kNoThread;  // Exclusive state
    LockSet candidates;
    bool candidatesInitialized = false;
    bool reported = false;
    events::ThreadId firstThread = events::kNoThread;
  };

  std::map<events::ThreadId, LockSet> held_;
  std::map<events::VarId, VarInfo> vars_;
};

}  // namespace confail::detect
