// ReleaseDisciplineCore: EF-T4 — "thread releases the object lock
// prematurely ... thread exits [the critical section] and subsequent
// statements may access shared resources" (Table 1).
//
// Within each component-method invocation (MethodEnter..MethodExit) that
// used a monitor, any shared-variable access performed after the thread's
// last lock release — while holding no lock at all — is flagged.
//
// Evidence is complete at the offending access, so
// all findings emit inline from feed(); finish() has nothing to add.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::detect {

class ReleaseDisciplineCore final : public StreamCore {
 public:
  const char* name() const override { return "release-discipline"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

 private:
  struct ThreadState {
    int locksHeld = 0;
    // Per innermost active method invocation: did it ever hold a lock, and
    // has it released since?
    struct Frame {
      events::MethodId method;
      bool usedLock = false;
      bool releasedAll = false;
    };
    std::vector<Frame> frames;
  };

  std::map<events::ThreadId, ThreadState> state_;
  std::set<std::pair<events::ThreadId, events::MethodId>> reported_;
};

}  // namespace confail::detect
