// JobSpec: one campaign described declaratively — the single grid spec
// shared by `confail inject --campaign`, the `confail serve` daemon and the
// `confail submit` client: a campaign is a JobSpec.
//
// A job names a (scenario x reduction x injection-plan) grid plus the
// per-cell exploration budgets; it parses from and renders to the
// machine-readable `confail.job.v1` JSON document.  explorerOptions(r)
// turns the budgets into the explorer options one cell runs under.
// expandShards() turns a spec into its deterministic shard list: one shard
// per applicable (scenario, reduction, class) cell followed by one per
// negative control.  Shard order is part of the contract — the campaign
// driver, the daemon's checkpointed shard files and the merged reports all
// index shards the same way, which is what makes a resumed campaign
// byte-identical to an uninterrupted one.
//
// runShard() executes one shard in isolation (this is what the `confail
// worker` subprocess runs) and campaignFromShards() folds ordered shard
// results back into a CampaignResult; runCampaign() is exactly
// expandShards + runShard + campaignFromShards in one process, so the CLI
// campaign and the daemon compute the same matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/events/trace.hpp"
#include "confail/inject/campaign.hpp"

namespace confail::inject {

/// "none" / "sleep" / "dpor" — the grid axis spelling of the explorer's
/// reduction modes (shared by the CLI flags and the job JSON).
const char* reductionName(sched::ExhaustiveExplorer::Reduction r);
bool parseReduction(const std::string& name,
                    sched::ExhaustiveExplorer::Reduction& out);

struct JobSpec {
  /// Campaign label; becomes part of the job id and the report source.
  /// Restricted to [A-Za-z0-9._-] so it embeds into file names.
  std::string name = "campaign";

  /// Scenario grid axis; empty = every registry scenario.
  std::vector<std::string> scenarios;

  /// Injected-class grid axis; empty = every injectable Table 1 class.
  std::vector<taxonomy::FailureClass> classes;

  /// Reduction grid axis; never empty (defaults to {None}).
  std::vector<sched::ExhaustiveExplorer::Reduction> reductions = {
      sched::ExhaustiveExplorer::Reduction::None};

  // Per-cell exploration budgets.
  std::uint64_t maxRuns = 4000;
  std::uint64_t maxSteps = 2000;
  std::size_t maxBranchDepth = 4;
  std::size_t workers = 1;
  bool negativeControls = true;

  /// The explorer options one cell of the grid runs under: the budgets
  /// above with reduction `r`, every other option at its default.
  sched::ExhaustiveExplorer::Options explorerOptions(
      sched::ExhaustiveExplorer::Reduction r) const;

  /// Semantic validation: unknown scenarios, non-injectable classes, a
  /// value repeated on a grid axis, zero budgets, bad name charset.
  /// Returns "" when the spec is runnable.
  std::string validate() const;

  /// Render as a confail.job.v1 document (canonical field order, so equal
  /// specs render byte-identically — job ids hash this rendering).
  std::string toJson() const;

  /// Parse a confail.job.v1 document.  Returns false with a diagnostic in
  /// `error` on malformed JSON, a wrong schema tag or a type mismatch;
  /// semantic checks are validate()'s job.
  static bool parse(const std::string& json, JobSpec& out,
                    std::string& error);
};

/// One unit of campaign work: a single matrix cell or negative control.
struct ShardSpec {
  std::size_t index = 0;  ///< position in the job's shard list
  bool control = false;   ///< negative control (uninjected) shard
  std::string scenario;
  taxonomy::FailureClass cls = taxonomy::FailureClass::FF_T5;  ///< !control
  sched::ExhaustiveExplorer::Reduction reduction =
      sched::ExhaustiveExplorer::Reduction::None;

  /// "fig2 x FF-T5 [none]" / "fig2 control [dpor]".
  std::string describe() const;
};

/// The deterministic shard list of a spec: injection cells first (scenario
///-major, then reduction, then class, skipping classes whose deviation
/// point the scenario lacks), then negative controls over the clean
/// scenarios.  Throws UsageError on a spec that fails validate().
std::vector<ShardSpec> expandShards(const JobSpec& spec);

/// One finding of a shard with its names resolved (ids are only meaningful
/// within one scenario's deterministic wiring, so shards resolve them
/// before results leave the worker — this is what lets a multi-host merge
/// re-intern ids without losing identity).
struct ShardFinding {
  std::string detector;
  detect::Finding finding;
  std::string thread;
  std::string thread2;
  std::string monitor;
  std::string var;
};

struct ShardResult {
  ShardSpec spec;
  MatrixCell cell;      ///< filled for injection shards
  ControlCell control;  ///< filled for control shards
  std::vector<ShardFinding> findings;
  /// One captured run of the shard's configuration as JSONL events
  /// (obs::toJsonl) — the daemon's per-shard heartbeat feed, consumable by
  /// `confail ingest`.  Filled only when requested.
  std::string eventsJsonl;
};

struct RunShardOptions {
  /// Resolve finding names (needs one extra captured run when the shard
  /// produced findings).  The in-process campaign driver turns this off.
  bool resolveNames = true;
  /// Also capture the shard's run as JSONL events (see eventsJsonl).
  bool captureEvents = false;
};

/// Execute one shard.  Deterministic: the same spec + shard always produce
/// the same counters and the same finding sequence.
ShardResult runShard(const JobSpec& spec, const ShardSpec& shard,
                     const RunShardOptions& opts = {});

/// runShard that always captures the shard's run, into the caller's empty
/// `run` instead of rendering it: eventsJsonl stays empty and
/// opts.captureEvents is ignored.  This is what lets a shard writer stream
/// the events to disk without holding them as one string.
ShardResult runShard(const JobSpec& spec, const ShardSpec& shard,
                     const RunShardOptions& opts, events::Trace& run);

/// A computed campaign: the spec it ran, its matrix cells and its negative
/// controls, in expandShards order.
struct CampaignResult {
  JobSpec spec;
  std::vector<MatrixCell> cells;
  std::vector<ControlCell> controls;

  /// The acceptance predicate: every injectable class was caught (with
  /// classifier agreement) on fig2, and every negative control is silent.
  bool ok() const;

  /// Machine-readable document (schema confail.injection.v1).  Its
  /// `options` block renders the spec's budgets and its whole reduction
  /// grid (`reductions`, in spec order); each cell names its own.
  std::string toJson() const;

  /// Table 1 with a detection column (fig2 results), the per-cell matrix,
  /// the controls, and a final "INJECTION MATRIX OK|FAIL" verdict line.
  std::string human() const;
};

/// Fold ordered shard results into the campaign result.  `shards` must be
/// in expandShards order (the caller sorts by ShardSpec::index).
CampaignResult campaignFromShards(const JobSpec& spec,
                                  const std::vector<ShardResult>& shards);

/// Run the whole campaign in this process: expandShards, runShard on each
/// shard in order, campaignFromShards.  Throws UsageError on a spec that
/// fails validate().  The default spec is the whole registry grid under
/// Reduction::None.
CampaignResult runCampaign(const JobSpec& spec = JobSpec());

}  // namespace confail::inject
