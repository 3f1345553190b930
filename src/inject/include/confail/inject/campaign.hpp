// Injection campaign: the detection matrix experiment.
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

struct CampaignOptions {
  std::uint64_t maxRuns = 4000;      ///< per-cell exploration budget
  std::uint64_t maxSteps = 2000;     ///< per-run step bound (spin classes!)
  std::size_t maxBranchDepth = 4;    ///< keeps each cell's tree small
  std::size_t workers = 1;           ///< 1 = deterministic cell traversal
  /// Schedule-tree reduction each cell is explored under (a campaign grid
  /// axis: the same plan can be run under none/sleep/dpor side by side).
  sched::ExhaustiveExplorer::Reduction reduction =
      sched::ExhaustiveExplorer::Reduction::None;
  bool negativeControls = true;
  /// Optional finding funnel: every detector finding from every analyzed
  /// run (deviated cells and negative controls alike) is appended here,
  /// attributed per detector — the same ReportSink the streaming ingest
  /// pipeline reports into, so campaign evidence renders as
  /// confail.findings.v1 / SARIF too.  Construct it with a cap for long
  /// campaigns; overflow is counted, not stored.  Note the sink's render
  /// methods take one NameSource, so rendering is only meaningful for
  /// single-scenario runs (ids are per-run; names are only stable within
  /// one scenario's deterministic wiring).
  detect::ReportSink* sink = nullptr;
};

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

struct CampaignResult {
  CampaignOptions options;
  std::vector<MatrixCell> cells;
  std::vector<ControlCell> controls;

  /// The acceptance predicate: every injectable class was caught (with
  /// classifier agreement) on fig2, and every negative control is silent.
  bool ok() const;

  /// Machine-readable document (schema confail.injection.v1).
  std::string toJson() const;

  /// Table 1 with a detection column (fig2 results), the per-cell matrix,
  /// the controls, and a final "INJECTION MATRIX OK|FAIL" verdict line.
  std::string human() const;
};

/// The default plan the campaign uses for `cls` on `sc` (victim threads,
/// occasion counts) — exposed so the CLI's single-plan mode and the tests
/// share it.
InjectionPlan defaultPlanFor(taxonomy::FailureClass cls,
                             const components::scenarios::NamedScenario& sc);

/// Whether the class's deviation point exists in the scenario at all.
bool planApplies(taxonomy::FailureClass cls,
                 const components::scenarios::NamedScenario& sc);

/// Run one cell (exposed for tests and the CLI's single-plan mode).
MatrixCell runCell(const components::scenarios::NamedScenario& sc,
                   const InjectionPlan& plan, const CampaignOptions& opts);

/// Run one negative control: explore `sc` uninjected and count findings.
ControlCell runControl(const components::scenarios::NamedScenario& sc,
                       const CampaignOptions& opts);

/// Run the full campaign.
CampaignResult runCampaign(const CampaignOptions& opts = CampaignOptions());

}  // namespace confail::inject
