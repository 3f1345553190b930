// Seeded JSONL v2 event streams with planted Table 1 defects, the input of
// the ingest_jsonl workload and of the ingest/detect layer probes.
//
// The background is a clean monitor program: 12 threads, 16 guard monitors
// each guarding 64 of 1,024 shared variables, nested locking in ascending
// order, and four wait/notify channels whose waits are always notified
// (WaitBegin, then the notifier's NotifyCall, then the waiter's Notified and
// lock reacquire).  On top of it the generator plants, at seeded positions:
//
//   * unguarded writes to four shared variables (FF-T1: lockset and
//     happens-before each report a DataRace per variable),
//   * one lock-order inversion (FF-T4 potential deadlock: lock-order-graph),
//   * one wait that is never notified (FF-T5 waiting forever: wait-notify),
//   * one early release: a method touches data after dropping its lock
//     (FF-T1 premature release: release-discipline).
//
// Nothing else in the stream is a defect, so the expected findings are
// exactly the planted ones (expectedFindingKeys).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/events/event.hpp"
#include "confail/events/trace.hpp"

namespace cfbench {

struct GeneratedStream {
  std::vector<confail::events::Event> events;  ///< seq == index
  std::vector<std::string> threads, monitors, vars, methods;

  // Planted defects.
  std::vector<confail::events::VarId> racyVars;
  confail::events::ThreadId hungThread = 0;
  confail::events::MonitorId hungMonitor = 0;
  confail::events::ThreadId earlyThread = 0;
  confail::events::VarId earlyVar = 0;
};

/// Deterministic in (seed, targetEvents); yields at least targetEvents.
GeneratedStream generateStream(std::uint64_t seed, std::size_t targetEvents);
/// The same into `out`, reusing its event buffer.
void generateStream(std::uint64_t seed, std::size_t targetEvents,
                    GeneratedStream& out);

/// Append the obs::toJsonl line of one event (newline included).
void appendJsonlLine(const GeneratedStream& g, const confail::events::Event& e,
                     std::string& out);

/// The same events and names as an events::Trace (the offline side).
void fillTrace(const GeneratedStream& g, confail::events::Trace& trace);

/// "" when appendJsonlLine renders the first `n` events exactly as
/// obs::toJsonl does.
std::string crossCheckFormat(const GeneratedStream& g, std::size_t n);

/// Identity of a finding for the known-answer comparison: detector core,
/// kind and the resolved names of what it points at.
std::string findingKey(const std::string& core,
                       const confail::detect::Finding& f,
                       const confail::detect::NameSource& names);

/// Sorted keys of the findings the planted defects must produce.
std::vector<std::string> expectedFindingKeys(const GeneratedStream& g);

}  // namespace cfbench
