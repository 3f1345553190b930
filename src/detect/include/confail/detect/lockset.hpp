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
//
// State is flat: held locks and candidate sets are small vectors sorted
// by monitor id (sets: a reentrant acquire adds nothing, a release drops
// the monitor), per-thread and per-variable state live in IdTables, and
// the refinement C(v) := C(v) ∩ held(t) is a merge in place.  After
// warm-up on a set of ids, feed() does not allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/support/id_table.hpp"

namespace confail::detect {

class LocksetCore final : public StreamCore {
 public:
  const char* name() const override { return "lockset(Eraser)"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  using LockSet = std::vector<events::MonitorId>;  // sorted, no repeats

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

  IdTable<LockSet> held_;
  IdTable<VarInfo> vars_;
};

}  // namespace confail::detect
