// `confail inject`: the deviation-injection engine's front end.
//
// Two modes:
//
//   inject --scenario <name> --class <FF-T5> [--monitor M] [--victim T]
//          [--after N] [--count N] [exploration flags] [--json]
//       Run ONE injection plan against one scenario and report which
//       detectors caught the injected class (a single matrix cell).
//
//   inject --campaign [--out FILE] [exploration flags]
//       Run the full detection-matrix campaign: every registry scenario x
//       every applicable injectable Table 1 class, plus negative controls.
//       --out writes the machine-readable matrix (confail.injection.v1);
//       stdout gets the human rendering ending in INJECTION MATRIX OK|FAIL.
//       The single-plan flags are usage errors here (exit 2), and --out and
//       --no-controls are usage errors without --campaign.
//
// Exit status follows cli.hpp: single-plan mode returns 1 when detectors
// produced findings (the usual outcome of a successful injection), campaign
// mode returns 1 unless the matrix is OK; 2 usage, 3 internal.
//
// Exploration flags (both modes): --max-runs, --max-steps, --max-depth,
// --workers, --reduction, --no-controls (campaign only).  Both modes hold
// them in one inject::JobSpec; a campaign runs it whole, a single plan
// runs one cell under its explorer options.  Each --reduction adds a
// column to the campaign's reduction grid (the first replaces the
// default); a single plan takes one.  A campaign whose spec fails
// JobSpec::validate (a repeated reduction, a zero budget) exits 2.
#include <cstdio>
#include <fstream>
#include <string>

#include "cli.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/events/trace.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/taxonomy/taxonomy.hpp"

namespace confail::cli {

namespace inject = confail::inject;
namespace scenarios = confail::components::scenarios;
namespace sched = confail::sched;
namespace taxonomy = confail::taxonomy;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --scenario <name> --class <FF-T5> [--monitor M] "
               "[--victim T]\n"
               "               [--after N] [--count N] [--json]\n"
               "               [--sarif-out FILE] [--json-out FILE] "
               "[--findings-cap N]\n"
               "       %s --campaign [--out FILE] [--no-controls]\n"
               "       common: [--max-runs N] [--max-steps N] [--max-depth N] "
               "[--workers N]\n"
               "               [--reduction none|sleep|dpor]\n\n"
               "injectable classes:\n",
               prog, prog);
  for (taxonomy::FailureClass cls : inject::injectableClasses()) {
    std::fprintf(stderr, "  %-6s %s\n", taxonomy::failureClassName(cls),
                 inject::operatorName(cls));
  }
  return 2;
}

std::string cellJson(const inject::MatrixCell& c) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("schema", "confail.injection.cell.v1");
  w.field("scenario", c.scenario);
  w.field("class", taxonomy::failureClassName(c.cls));
  w.field("operator", inject::operatorName(c.cls));
  w.field("plan", c.plan.describe());
  w.field("runs", c.runs);
  w.field("deviated_runs", c.deviatedRuns);
  w.field("failing_runs", c.failingRuns);
  w.field("caught", c.caught);
  w.field("classifier_agrees", c.classifierAgrees);
  w.key("caught_by");
  w.beginArray();
  for (const std::string& name : c.caughtBy()) w.value(name);
  w.endArray();
  w.key("detectors");
  w.beginObject();
  for (const inject::DetectorCell& d : c.detectors) {
    w.key(d.detector);
    w.beginObject();
    w.field("findings", d.findings);
    w.field("hits", d.hits);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  return w.str();
}

void printCell(const inject::MatrixCell& c) {
  std::printf("plan: %s\n", c.plan.describe().c_str());
  std::printf("runs %llu, deviated %llu, failing %llu\n",
              static_cast<unsigned long long>(c.runs),
              static_cast<unsigned long long>(c.deviatedRuns),
              static_cast<unsigned long long>(c.failingRuns));
  for (const inject::DetectorCell& d : c.detectors) {
    if (d.findings == 0 && d.hits == 0) continue;
    std::printf("  %-20s findings %llu, hits on %s: %llu\n", d.detector.c_str(),
                static_cast<unsigned long long>(d.findings),
                taxonomy::failureClassName(c.cls),
                static_cast<unsigned long long>(d.hits));
  }
  std::printf("%s: %s%s\n", taxonomy::failureClassName(c.cls),
              c.caught ? "caught" : "MISSED",
              c.classifierAgrees ? " (+classifier)" : "");
}

}  // namespace

int cmdInject(const char* prog, int argc, char** argv) {
  // The flags that configure the one plan of single-plan mode; --campaign
  // runs every default plan and sets no sink, so it rejects them.
  static const char* const kSinglePlanFlags[] = {
      "--scenario",  "--class",    "--monitor",  "--victim",
      "--after",     "--count",    "--json-out", "--findings-out",
      "--sarif-out", "--findings-cap"};
  // The flags only a campaign honours; single-plan mode rejects them.
  static const char* const kCampaignFlags[] = {"--out", "--no-controls"};
  bool campaign = false;
  bool json = false;
  bool haveClass = false;
  const scenarios::NamedScenario* scenario = nullptr;
  taxonomy::FailureClass cls = taxonomy::FailureClass::FF_T5;
  std::string monitor;
  std::string victim;
  bool haveVictim = false;
  std::uint64_t after = 0;
  bool haveAfter = false;
  std::uint64_t count = 0;
  bool haveCount = false;
  std::string outFile;
  std::string sarifOut;
  std::string findingsOut;
  std::size_t findingsCap = 0;
  const char* singlePlanFlag = nullptr;
  const char* campaignFlag = nullptr;
  inject::JobSpec spec;
  bool reductionGiven = false;  // the first --reduction replaces the default

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return flagValue(i, argc, argv); };
    for (const char* f : kSinglePlanFlags) {
      if (arg == f) singlePlanFlag = f;
    }
    for (const char* f : kCampaignFlags) {
      if (arg == f) campaignFlag = f;
    }
    const FlagParse budget = parseBudgetFlag(prog, i, argc, argv, spec);
    if (budget == FlagParse::Bad) return usage(prog);
    if (budget == FlagParse::Ok) continue;
    if (arg == "--campaign") {
      campaign = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-controls") {
      spec.negativeControls = false;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      scenario = scenarios::find(v);
      if (scenario == nullptr) {
        std::fprintf(stderr, "%s: unknown scenario '%s'\n", prog, v);
        return usage(prog);
      }
    } else if (arg == "--class") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      if (!taxonomy::parseFailureClass(v, cls)) {
        std::fprintf(stderr, "%s: unknown failure class '%s'\n", prog, v);
        return usage(prog);
      }
      haveClass = true;
    } else if (arg == "--monitor") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      monitor = v;
    } else if (arg == "--victim") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      victim = v;
      haveVictim = true;
    } else if (arg == "--after") {
      if (!parseU64(prog, "--after", next(), after)) return usage(prog);
      haveAfter = true;
    } else if (arg == "--count") {
      if (!parseU64(prog, "--count", next(), count)) return usage(prog);
      haveCount = true;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      outFile = v;
    } else if (arg == "--sarif-out") {
      const char* v = next();
      if (v == nullptr) return usage(prog);
      sarifOut = v;
    } else if (arg == "--json-out" || arg == "--findings-out") {
      // --findings-out is the historical spelling, kept as an alias.
      const char* v = next();
      if (v == nullptr) return usage(prog);
      findingsOut = v;
    } else if (arg == "--reduction") {
      const char* v = next();
      sched::ExhaustiveExplorer::Reduction r;
      if (v == nullptr || !inject::parseReduction(v, r)) {
        std::fprintf(stderr, "%s: unknown reduction '%s'\n", prog,
                     v == nullptr ? "" : v);
        return usage(prog);
      }
      if (!reductionGiven) spec.reductions.clear();
      spec.reductions.push_back(r);
      reductionGiven = true;
    } else if (arg == "--findings-cap") {
      if (!parseU64(prog, "--findings-cap", next(), findingsCap)) {
        return usage(prog);
      }
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", prog, arg.c_str());
      return usage(prog);
    }
  }
  if (campaign && singlePlanFlag != nullptr) {
    std::fprintf(stderr, "%s: %s does not apply to --campaign\n", prog,
                 singlePlanFlag);
    return usage(prog);
  }
  if (!campaign && campaignFlag != nullptr) {
    std::fprintf(stderr, "%s: %s requires --campaign\n", prog, campaignFlag);
    return usage(prog);
  }
  if (campaign) {
    const std::string problem = spec.validate();
    if (!problem.empty()) {
      std::fprintf(stderr, "%s: invalid campaign: %s\n", prog,
                   problem.c_str());
      return usage(prog);
    }
  } else if (spec.reductions.size() > 1) {
    std::fprintf(stderr, "%s: one plan runs under one --reduction\n", prog);
    return usage(prog);
  }

  try {
    if (campaign) {
      const inject::CampaignResult result = inject::runCampaign(spec);
      if (!outFile.empty()) {
        std::ofstream out(outFile);
        if (!out || !(out << result.toJson() << '\n')) {
          std::fprintf(stderr, "%s: cannot write %s\n", prog, outFile.c_str());
          return 3;
        }
      }
      if (json) {
        std::printf("%s\n", result.toJson().c_str());
      } else {
        std::fputs(result.human().c_str(), stdout);
      }
      return result.ok() ? 0 : 1;
    }

    if (scenario == nullptr || !haveClass) return usage(prog);
    if (!inject::isInjectable(cls)) {
      std::fprintf(stderr, "%s: %s is not injectable (structural class)\n",
                   prog, taxonomy::failureClassName(cls));
      return 2;
    }
    if (!inject::planApplies(cls, *scenario)) {
      std::fprintf(stderr,
                   "%s: %s does not apply to scenario '%s' (no deviation "
                   "point)\n",
                   prog, taxonomy::failureClassName(cls),
                   scenario->name.c_str());
      return 2;
    }
    inject::InjectionPlan plan = inject::defaultPlanFor(cls, *scenario);
    if (!monitor.empty()) plan.monitor = monitor;
    if (haveVictim) plan.victim = victim;
    if (haveAfter) plan.after = after;
    if (haveCount) plan.count = count;

    // Single-plan mode can render the findings documents: all runs are of
    // one scenario, whose deterministic wiring keeps ids -> names stable,
    // so one captured run's name tables resolve every finding.
    confail::detect::ReportSink sink(findingsCap);
    sink.setSource(scenario->name + "+" +
                   taxonomy::failureClassName(cls));
    const bool wantSink = !sarifOut.empty() || !findingsOut.empty();

    const inject::MatrixCell cell = inject::runCell(
        *scenario, plan, spec.explorerOptions(spec.reductions.front()),
        wantSink ? &sink : nullptr);

    if (wantSink) {
      events::Trace captured;
      obs::Registry metrics;
      inject::ExploreConfig cfg;
      cfg.scenario(*scenario).plan(plan);
      cfg.capture(captured, metrics);
      const confail::detect::TraceNames names(captured);
      if (!sarifOut.empty() && !sink.writeSarifFile(names, sarifOut)) {
        std::fprintf(stderr, "%s: cannot write %s\n", prog,
                     sarifOut.c_str());
        return 3;
      }
      if (!findingsOut.empty() && !sink.writeJsonFile(names, findingsOut)) {
        std::fprintf(stderr, "%s: cannot write %s\n", prog,
                     findingsOut.c_str());
        return 3;
      }
    }
    if (json) {
      std::printf("%s\n", cellJson(cell).c_str());
    } else {
      printCell(cell);
    }
    std::uint64_t totalFindings = 0;
    for (const inject::DetectorCell& d : cell.detectors) {
      totalFindings += d.findings;
    }
    return totalFindings > 0 || cell.failingRuns > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 3;
  }
}

}  // namespace confail::cli
