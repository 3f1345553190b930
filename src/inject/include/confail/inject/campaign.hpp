// Injection campaign cells: the units of the detection matrix experiment.
//
// For every scenario in the registry and every injectable Table 1 class
// that applies to it (lock classes need a monitor, wait/notify classes need
// a wait/notify protocol), the campaign explores the scenario with a fresh
// per-run Injector executing the class's default plan and runs the
// detector battery (DetectorSuite) over every deviated run's trace.  The
// product is a machine-readable matrix
//
//     deviation class x scenario x detector  ->  caught / missed
//
// plus the taxonomy classifier's agreement (did the classifier's combined
// findings+run-outcome report contain the injected class?), and negative
// controls: the clean scenarios explored UNinjected must yield zero
// findings from every detector.
//
// This header holds one cell of that matrix: runCell() and runControl()
// take the explorer's own options as the cell's budget (runs, steps,
// branch depth, workers, reduction).  The campaign itself — which cells,
// under which budgets — is an inject::JobSpec (job_spec.hpp), and
// runCampaign(spec) there computes the whole matrix.
//
// This closes the paper's loop experimentally: Table 1 postulates the
// failure classes by HAZOP deviation of the Figure 1 transitions, and the
// campaign demonstrates each injectable deviation is (a) realizable in the
// virtual monitor and (b) caught by the battery the Testing Notes column
// prescribes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/inject/plan.hpp"
#include "confail/sched/explorer.hpp"

namespace confail::detect {
class ReportSink;
}

namespace confail::inject {

/// One detector column of a matrix cell.
struct DetectorCell {
  std::string detector;
  std::uint64_t findings = 0;  ///< findings of any kind over deviated runs
  std::uint64_t hits = 0;      ///< findings classified to the injected class
};

/// One (scenario, injected class, reduction) cell.  `wallMs` and
/// `hostConcurrency` are execution provenance: when cells of one campaign
/// are computed as shards on different hosts (the `confail serve` path),
/// the merged matrix must not lose where and how fast each cell ran.
struct MatrixCell {
  std::string scenario;
  taxonomy::FailureClass cls = taxonomy::FailureClass::FF_T1;
  sched::ExhaustiveExplorer::Reduction reduction =
      sched::ExhaustiveExplorer::Reduction::None;
  InjectionPlan plan;
  std::uint64_t runs = 0;          ///< runs explored in this cell
  std::uint64_t deviatedRuns = 0;  ///< runs where the plan actually fired
  std::uint64_t failingRuns = 0;   ///< non-Completed outcomes
  bool caught = false;             ///< >=1 detector hit on the injected class
  bool classifierAgrees = false;   ///< classifier report contained the class
  double wallMs = 0.0;             ///< wall-clock of this cell's exploration
  std::uint32_t hostConcurrency = 0;  ///< hardware_concurrency of the host
  std::vector<DetectorCell> detectors;

  std::vector<std::string> caughtBy() const;
};

/// One negative-control row: a clean scenario explored uninjected.
struct ControlCell {
  std::string scenario;
  sched::ExhaustiveExplorer::Reduction reduction =
      sched::ExhaustiveExplorer::Reduction::None;
  std::uint64_t runs = 0;
  std::uint64_t findings = 0;     ///< total suite findings (must be 0)
  std::uint64_t failingRuns = 0;  ///< non-Completed outcomes (must be 0)
  double wallMs = 0.0;
  std::uint32_t hostConcurrency = 0;
};

/// The default plan the campaign uses for `cls` on `sc` (victim threads,
/// occasion counts) — exposed so the CLI's single-plan mode and the tests
/// share it.
InjectionPlan defaultPlanFor(taxonomy::FailureClass cls,
                             const components::scenarios::NamedScenario& sc);

/// Whether the class's deviation point exists in the scenario at all.
bool planApplies(taxonomy::FailureClass cls,
                 const components::scenarios::NamedScenario& sc);

/// Run one cell: explore `sc` under `eo` with `plan` injected into every
/// run, and feed each deviated run's trace to the detector battery.  When
/// `sink` is set, every detector finding of every analyzed run is appended
/// to it, attributed per detector (the CLI's single-plan mode renders it as
/// confail.findings.v1 / SARIF; shards resolve its names).
MatrixCell runCell(const components::scenarios::NamedScenario& sc,
                   const InjectionPlan& plan,
                   const sched::ExhaustiveExplorer::Options& eo,
                   detect::ReportSink* sink = nullptr);

/// Run one negative control: explore `sc` uninjected under `eo` and count
/// findings (appended to `sink` when set, as in runCell).
ControlCell runControl(const components::scenarios::NamedScenario& sc,
                       const sched::ExhaustiveExplorer::Options& eo,
                       detect::ReportSink* sink = nullptr);

}  // namespace confail::inject
