// StreamingSuite: the full Table 1 detector battery, and its only
// definition.
//
// Owns one StreamCore per technique in the paper's Table 1 testing notes —
// its constructor is the one place the battery's cores, options and order
// are set — and advances all of them one event at a time.  Findings are
// buffered per core and flattened in battery order at finish().  The
// offline entry point (DetectorSuite) is this same suite fed a recorded
// trace's events, so streaming and offline analysis agree by construction.
//
// Live consumers (confail ingest --follow) can register an onFinding
// callback to observe findings the moment a core emits them, without
// waiting for the ordered flatten.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::obs {
class Counter;
class Histogram;
class Registry;
}

namespace confail::detect {

class HbCore;

class StreamingSuite {
 public:
  /// The battery's construction options (shared by DetectorSuite).
  struct Options {
    /// Grants-while-pending threshold for the starvation core.
    std::uint64_t starvationGrantThreshold = 50;
    /// Skip the unnecessary-sync core (it flags single-threaded use,
    /// which is expected in some micro-tests).
    bool includeUnnecessarySync = true;
    /// Flag non-FIFO lock grants (protocol-deviation EF-T2 oracle).  Off by
    /// default: arbitrary grant order is JLS-legal, so this is only sound
    /// against components whose monitors use the Fifo policies.
    bool flagBarging = false;
    /// Bound on the happens-before core's per-variable history; 0 keeps
    /// every variable (exact, unbounded memory).  See HbCore::Options.
    std::size_t hbMaxVarHistory = 0;
  };

  StreamingSuite() : StreamingSuite(Options()) {}
  explicit StreamingSuite(Options opts);
  ~StreamingSuite();

  StreamingSuite(const StreamingSuite&) = delete;
  StreamingSuite& operator=(const StreamingSuite&) = delete;

  /// Advance every core by one event (events must arrive in seq order).
  void feed(const events::Event& e);

  /// Flush end-of-stream findings.  Call exactly once, after the last
  /// feed(); `names` must resolve every id the stream used.
  void finish(const NameSource& names);

  /// All findings flattened in battery order (valid after finish()).
  std::vector<Finding> findings() const;

  /// Findings from one core, attributed by its name.
  struct Report {
    const char* detector;
    std::vector<Finding> findings;
  };
  /// Per-core reports in battery order (valid after finish()).
  std::vector<Report> reports() const;

  std::vector<const char*> coreNames() const;
  std::uint64_t eventsFed() const { return eventsFed_; }

  /// Variables the bounded happens-before core evicted (0 when exact).
  std::uint64_t hbEvictions() const;

  /// Attach a metrics registry: feed() then records per-core feed latency
  /// (detect.<core>.feed_ns histogram, sampled: one event in 64, the first
  /// event included) and feed() and finish() exact per-core finding counts
  /// (detect.<core>.findings).  The handles are resolved here, once; a
  /// sampled event costs two clock reads per core.  Null detaches; the
  /// registry must outlive the suite's feed() and finish() calls.
  void setMetrics(obs::Registry* metrics);

  /// Called for every finding as its core emits it (before ordering).
  void setOnFinding(
      std::function<void(const char* core, const Finding&)> cb) {
    onFinding_ = std::move(cb);
  }

 private:
  struct Slot {
    std::unique_ptr<StreamCore> core;
    std::vector<Finding> findings;
    obs::Histogram* feedNs = nullptr;  // null when metrics are detached
    obs::Counter* found = nullptr;
  };
  /// Count and publish the findings `s` appended past `before`.
  void emitted(Slot& s, std::size_t before);

  std::vector<Slot> slots_;
  HbCore* hb_ = nullptr;  // borrowed from slots_
  std::function<void(const char*, const Finding&)> onFinding_;
  std::uint64_t eventsFed_ = 0;
  bool finished_ = false;
};

}  // namespace confail::detect
