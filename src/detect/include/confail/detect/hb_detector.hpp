// HbCore: a vector-clock happens-before race detector (FastTrack-style,
// simplified to full vector clocks).
//
// Complements the lockset detector for FF-T1: lockset flags *policy*
// violations (no consistent lock) and can false-positive on programs that
// synchronize by other means; happens-before flags only accesses that are
// truly unordered in the recorded execution.
//
// Synchronization edges extracted from the trace:
//   * monitor release (LockRelease, WaitBegin) publishes the thread's clock
//     into the monitor's clock;
//   * monitor acquire (LockAcquire) joins the monitor's clock into the
//     thread's clock — this covers wait/notify ordering too, because a
//     woken waiter re-acquires the lock after the notifier released it;
//   * ThreadSpawn orders the parent's prefix before the child.
//
// For unbounded streams the per-variable
// access history can be capped (Options::maxVarHistory): when the map
// exceeds the cap the least-recently-touched variable is evicted and
// evictions() counts the loss of precision.  The default (0) keeps every
// variable, which is what the offline battery (DetectorSuite) and the
// differential tests use — with zero evictions the two are exact.
#pragma once

#include <cstdint>
#include <map>

#include "confail/detect/finding.hpp"
#include "confail/detect/vector_clock.hpp"

namespace confail::detect {

class HbCore final : public StreamCore {
 public:
  struct Options {
    /// Max distinct variables tracked at once; 0 = unbounded.
    std::size_t maxVarHistory = 0;
  };

  HbCore() = default;
  explicit HbCore(Options opts) : opts_(opts) {}

  const char* name() const override { return "happens-before(vector-clock)"; }
  void feed(const events::Event& e, std::vector<Finding>& out) override;
  void finish(const NameSource& names, std::vector<Finding>& out) override;

  /// Variables dropped to stay under maxVarHistory.  Nonzero means the
  /// analysis may have missed races on evicted variables.
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct VarHistory {
    // Last write: the writer's id/clock plus its full clock snapshot.
    events::ThreadId lastWriter = events::kNoThread;
    std::uint64_t lastWriteClock = 0;
    // Per-thread clock of the last read since the last write.
    std::map<events::ThreadId, std::uint64_t> reads;
    bool reported = false;
    std::uint64_t lastTouch = 0;
  };

  VectorClock& clockOf(events::ThreadId t);
  VarHistory& varOf(events::VarId v);

  Options opts_;
  std::map<events::ThreadId, VectorClock> threadClock_;
  std::map<events::MonitorId, VectorClock> monitorClock_;
  std::map<events::VarId, VarHistory> vars_;
  std::map<std::uint64_t, events::VarId> touchOrder_;  // lastTouch -> var
  std::uint64_t touchCounter_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace confail::detect
