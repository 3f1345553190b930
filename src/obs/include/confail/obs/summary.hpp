// Shared rendering of an exploration result: one struct, two formats.
//
// confail_explore and the bench binaries all report the same quantities
// (runs, outcomes, reductions, the first failing schedule, throughput).
// ExploreSummary keeps those in a plain struct with no sched:: types so
// this module stays below sched in the dependency order; callers copy the
// explorer's Stats in and get the human text and the JSON object out of
// one place instead of hand-rolled printf blocks.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace confail::obs {

class JsonWriter;
struct Snapshot;

struct ExploreSummary {
  std::string scenario;
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t stepLimited = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t dedupedStates = 0;
  std::uint64_t prunedBranches = 0;
  std::uint64_t sleepBlockedRuns = 0;
  std::uint64_t distinctDeadlockStates = 0;
  bool exhausted = false;
  bool stoppedByCallback = false;
  /// Whether any reduction (pruning / sleep sets) was enabled — controls
  /// whether the reductions line appears in the human rendering.
  bool reductionsEnabled = false;
  std::vector<std::uint32_t> firstFailure;
  std::string firstFailureOutcome;
  /// Wall time and throughput; 0 means not measured, and both renderings
  /// then leave them out (they vary from run to run).
  double elapsedMs = 0.0;
  double runsPerSec = 0.0;
  /// Percentile digests of the run's latency/size histograms, one
  /// (histogram name, "p50<=N p90<=N p99<=N") pair per non-empty
  /// histogram.  Filled from a metrics snapshot when instrumentation was
  /// on; the summary prints these instead of raw bucket dumps.
  std::vector<std::pair<std::string, std::string>> histogramPercentiles;

  /// Append a percentile line for every non-empty histogram in `snap`.
  void addHistogramPercentiles(const Snapshot& snap);

  /// Multi-line human rendering (the confail_explore default output,
  /// without the trailing sentinel line).
  std::string human() const;

  /// Emit as a JSON object into an open writer, so the summary can embed
  /// in a larger document (a metrics snapshot, a bench row).
  void writeJson(JsonWriter& w) const;

  /// Standalone single-document form of writeJson.
  std::string toJson() const;
};

}  // namespace confail::obs
