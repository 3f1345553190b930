// ExploreConfig: one builder that owns the wiring of an exploration run —
// scenario selection, explorer options, metrics registry, stderr progress
// heartbeat, optional deviation injection, per-run trace capture, and the
// summary/coverage assembly.
//
// This is the front door for everything that explores a scenario: the
// `confail explore` and `confail inject` CLI verbs, the injection campaign
// driver and the tests all build on it, so the wiring exists exactly once.
// It fills in scenarios::Instruments for every run it builds; see
// docs/injection.md ("Migration") for the hand-wired plumbing it replaced.
//
// Determinism contract: with no metrics, no progress and no observer, an
// exploration through ExploreConfig is a plain run of the scenario on the
// explorer (empty Instruments, default summary rendering), so its output
// is byte-identical at any worker count whenever the explorer's own
// workers-1-vs-N identical-stats guarantee applies.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "confail/components/scenario_registry.hpp"
#include "confail/inject/plan.hpp"
#include "confail/obs/summary.hpp"
#include "confail/sched/explorer.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::inject {

/// One explored run as seen by a RunObserver.  `trace` is non-null only
/// when per-run capture is on (an injection plan or captureRuns(true));
/// it points at the run's private trace and is valid for the duration of
/// the observer call.
struct RunView {
  const std::vector<sched::ThreadId>& schedule;
  const sched::RunResult& result;
  const events::Trace* trace = nullptr;
  std::uint64_t deviationsApplied = 0;
};

class ExploreConfig {
 public:
  /// Observer invoked after every run, serialized across workers (same
  /// contract as ExhaustiveExplorer::RunCallback).  Return false to stop.
  using RunObserver = std::function<bool(const RunView&)>;

  ExploreConfig();

  /// Select the scenario (required before explore()/capture()).
  ExploreConfig& scenario(const components::scenarios::NamedScenario& sc);
  /// Select by registry name; throws UsageError when unknown.
  ExploreConfig& scenario(const std::string& name);

  /// Explorer options (workers, bounds, reductions).  The metrics field is
  /// overwritten by metrics() below.
  ExploreConfig& explorer(const sched::ExhaustiveExplorer::Options& eo);

  /// Attach a metrics registry to the explorer, the schedulers and every
  /// monitor the scenario builds.  Null detaches.
  ExploreConfig& metrics(obs::Registry* reg);

  /// Emit the standard heartbeat lines on stderr during exploration.
  ExploreConfig& stderrProgress();

  /// Activate deviation injection: every run gets a fresh Injector
  /// executing this plan.  Implies per-run trace capture.
  ExploreConfig& plan(const InjectionPlan& p);

  /// Capture a per-run trace even without an injection plan, so a
  /// RunObserver can feed detectors.
  ExploreConfig& captureRuns(bool on = true);

  const components::scenarios::NamedScenario* scenarioInfo() const {
    return sc_;
  }
  const sched::ExhaustiveExplorer::Options& explorerOptions() const {
    return eo_;
  }

  struct Outcome {
    const components::scenarios::NamedScenario* scenario = nullptr;
    sched::ExhaustiveExplorer::Stats stats;
    std::size_t distinctDeadlockStates = 0;
    double elapsedMs = 0.0;
    bool instrumented = false;
    bool reductionsEnabled = false;

    /// The standard report (`confail explore`'s output body).  Wall-clock
    /// fields are filled only when instrumented, preserving the
    /// byte-identical default-output contract.
    obs::ExploreSummary summary() const;
  };

  /// Run the exploration.  Throws UsageError if no scenario was selected.
  Outcome explore(const RunObserver& onRun = nullptr) const;

  /// Execute one round-robin run of the scenario with an external trace
  /// (for the Chrome export) and a metrics registry, honoring the injection
  /// plan if one is set, then publish CoFG arc coverage of the captured
  /// events when the scenario has the buffer.
  void capture(events::Trace& trace, obs::Registry& metricsReg) const;

  /// Hash of the blocked-thread multiset of a deadlocked run — two
  /// deadlocks with equal signatures stuck in the same final state.
  static std::uint64_t deadlockSignature(const sched::RunResult& r);

 private:
  const components::scenarios::NamedScenario* sc_ = nullptr;
  sched::ExhaustiveExplorer::Options eo_;
  obs::Registry* metrics_ = nullptr;
  bool progress_ = false;
  bool hasPlan_ = false;
  InjectionPlan plan_;
  bool captureRuns_ = false;
};

}  // namespace confail::inject
