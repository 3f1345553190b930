// Findings: the common output type of all dynamic-analysis detectors.
//
// Each detector implements one of the detection techniques named in the
// "Testing Notes" column of the paper's Table 1; the taxonomy::Classifier
// then maps finding kinds onto the paper's ten failure classes
// (FF-T1 ... EF-T5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/events/event.hpp"
#include "confail/events/trace.hpp"

namespace confail::detect {

enum class FindingKind : std::uint8_t {
  DataRace,                 ///< lockset/HB: conflicting unordered accesses
  UnnecessarySync,          ///< monitor never contended, never waited on
  DeadlockCycle,            ///< lock-order graph contains a cycle
  LockHeldForever,          ///< a lock never released while others request it
  Starvation,               ///< a lock request starved by repeated grants
  WaitingForever,           ///< a wait never followed by a wake
  LostNotify,               ///< notify with no waiters, later wait never woken
  NotifySingleInsufficient, ///< notify() woke one of several waiters; rest hung
  GuardNotRechecked,        ///< woken thread proceeded without re-testing guard
  EarlyRelease,             ///< shared data accessed after the lock was released
  MissedWait,               ///< guard held twice with no wait between (spin)
  SpuriousWakeup,           ///< a waiter woke with no notification at all
  PhantomNotify,            ///< a Notified with no notify call backing it
  BargingAcquire,           ///< a grant overtook an older entry-queue request
};

const char* findingKindName(FindingKind k);

/// Inverse of findingKindName; false when `name` matches no kind.  The
/// campaign shard store round-trips finding kinds by name through this.
bool parseFindingKind(const std::string& name, FindingKind& out);

struct Finding {
  FindingKind kind;
  std::string message;
  events::ThreadId thread = events::kNoThread;   ///< principal thread
  events::ThreadId thread2 = events::kNoThread;  ///< other party, if any
  events::MonitorId monitor = events::kNoMonitor;
  events::VarId var = events::kNoVar;
  std::uint64_t seq = 0;  ///< trace position of the decisive event

  std::string describe(const events::Trace& trace) const;
};

/// Read-only name lookup.  Incremental cores need it at finish time (cycle
/// messages embed monitor names) and report sinks need it to render
/// findings; events::Trace satisfies it via TraceNames, and the streaming
/// ingest pipeline via its own table rebuilt from the event stream.
class NameSource {
 public:
  virtual ~NameSource() = default;
  virtual std::string threadName(events::ThreadId id) const = 0;
  virtual std::string monitorName(events::MonitorId id) const = 0;
  virtual std::string varName(events::VarId id) const = 0;
  virtual std::string methodName(events::MethodId id) const = 0;
};

/// NameSource over a Trace's registered name tables.
class TraceNames final : public NameSource {
 public:
  explicit TraceNames(const events::Trace& t) : t_(t) {}
  std::string threadName(events::ThreadId id) const override {
    return t_.threadName(id);
  }
  std::string monitorName(events::MonitorId id) const override {
    return t_.monitorName(id);
  }
  std::string varName(events::VarId id) const override {
    return t_.varName(id);
  }
  std::string methodName(events::MethodId id) const override {
    return t_.methodName(id);
  }

 private:
  const events::Trace& t_;
};

/// Incremental detector core: the single-pass state machine behind every
/// detector in the battery.  feed() consumes events in global seq order and
/// appends findings whose evidence is already complete; finish() appends
/// the findings only end-of-stream can certify (hung waiters, never-granted
/// requests, whole-run structural critiques) and must be called exactly
/// once, after the last feed().
///
/// The battery runs these cores through StreamingSuite, both online and
/// offline (DetectorSuite feeds it a recorded trace's events), so a
/// streamed run and the offline analysis of the same events produce the
/// same finding vector by construction.
class StreamCore {
 public:
  virtual ~StreamCore() = default;
  virtual const char* name() const = 0;
  virtual void feed(const events::Event& e, std::vector<Finding>& out) = 0;
  virtual void finish(const NameSource& names, std::vector<Finding>& out) = 0;
};

/// Drive one core over a completed trace: feed every event, then finish.
/// For targeted single-technique analyses; DetectorSuite runs the battery.
std::vector<Finding> analyzeWithCore(StreamCore& core,
                                     const events::Trace& trace);

}  // namespace confail::detect
