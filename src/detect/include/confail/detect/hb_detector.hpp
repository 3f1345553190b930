// HbCore: a vector-clock happens-before race detector.
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
// State is flat, in the style of FastTrack (Flanagan & Freund, PLDI 2009):
// per-thread and per-monitor vector clocks and per-variable histories live
// in IdTables.  A variable's last write is an epoch (writer, clock), so
// checking it against an access is one comparison.  The reads since that
// write stay exact — a small vector of (reader, clock) sorted by reader,
// not FastTrack's collapsed read epoch — so a finding names the same
// `thread2` a per-reader map would.  After warm-up on a set of ids, feed()
// does not allocate.
//
// For unbounded streams the per-variable access history can be capped
// (Options::maxVarHistory): when a new variable would exceed the cap, the
// least-recently-touched one is evicted (an intrusive list over the
// variable slots, kept only when the cap is nonzero) and evictions()
// counts the loss of precision.  The default (0) keeps every variable,
// which is what the offline battery (DetectorSuite) and the differential
// tests use — with zero evictions the two are exact.
#pragma once

#include <cstdint>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/detect/vector_clock.hpp"
#include "confail/support/id_table.hpp"

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
  struct ReadEpoch {
    events::ThreadId reader;
    std::uint64_t clock;
  };
  struct VarHistory {
    // Last write: the writer's id and its own clock component.
    events::ThreadId lastWriter = events::kNoThread;
    std::uint64_t lastWriteClock = 0;
    // The clock of each thread's last read since the last write.
    std::vector<ReadEpoch> reads;  // sorted by reader
    bool reported = false;
    // Capped mode only: tracked now, and the recency-list neighbours
    // (meaningful unless this is the oldest / newest variable).
    bool live = false;
    events::VarId older = 0;
    events::VarId newer = 0;
  };

  VectorClock& clockOf(events::ThreadId t);
  VarHistory& varOf(events::VarId v);
  void unlink(events::VarId v, const VarHistory& h);
  void append(events::VarId v, VarHistory& h);

  Options opts_;
  IdTable<VectorClock> threadClock_;
  IdTable<VectorClock> monitorClock_;
  IdTable<VarHistory> vars_;
  VectorClock spawnScratch_;  // the parent's clock while a child joins it
  // Capped mode: the live variables, a list from least to most recently
  // touched.
  std::size_t live_ = 0;
  events::VarId oldest_ = 0;
  events::VarId newest_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace confail::detect
