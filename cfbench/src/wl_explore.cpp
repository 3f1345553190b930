// explore_ff_t5: one deep schedule tree where `sched` does almost all the
// work.  Its traced batches report the sched/monitor/components layers.
#include <atomic>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "confail/components/scenario_registry.hpp"
#include "confail/components/scenarios.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/sched/explorer.hpp"

namespace cfbench {

namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;
using Explorer = sched::ExhaustiveExplorer;

namespace {

constexpr const char* kScenario = "ff_t5";
/// Branch-depth bound of the timed tree: the smallest bound at which all
/// 7 distinct deadlock states of ff_t5 appear, and the tree still exhausts.
constexpr std::size_t kDepth = 18;
/// Shallow bound of the set-up warm-up and of the reference instance.
constexpr std::size_t kShallowDepth = 14;

/// The recorded answer of a Dpor exploration: identical for every worker
/// count (the explorer's determinism contract).
struct Answer {
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t stepLimited = 0;
  std::uint64_t exceptions = 0;
  std::vector<std::uint64_t> deadlockStates;  ///< sorted signatures
  std::vector<sched::ThreadId> firstFailure;  ///< canonical witness
  bool exhausted = false;
  Explorer::Stats stats;  ///< everything else the explorer counted
};

const Answer& knownAnswer() {
  static const Answer a = [] {
    Answer k;
    k.runs = 103107;
    k.completed = 98408;
    k.deadlocks = 4100;
    k.deadlockStates = {4436257981431912352ull,  6831674387274168894ull,
                        14279418628927945502ull, 16440432144528572912ull,
                        16445529656523161392ull, 16540830283880582476ull,
                        16544572089443554636ull};
    k.firstFailure = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 2, 3, 3, 3,
                      2, 2, 0, 0, 0, 0, 0, 1, 1, 3, 3, 3, 3, 3, 2, 2, 3};
    k.exhausted = true;
    return k;
  }();
  return a;
}

Explorer::Options explorerOptions(std::size_t depth, std::size_t workers) {
  Explorer::Options eo;
  eo.maxRuns = 10'000'000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = depth;
  eo.workers = workers;
  eo.reduction = Explorer::Reduction::Dpor;
  eo.incremental = true;
  return eo;
}

/// Explore a program of the scenario; collects the distinct deadlock
/// states the way `confail explore` does.
Answer explore(const Explorer::Options& eo, const Explorer::Program& program) {
  std::set<std::uint64_t> sigs;
  const Explorer::Stats st = Explorer(eo).explore(
      program, [&sigs](const std::vector<sched::ThreadId>&,
                       const sched::RunResult& r) {
        if (r.outcome == sched::Outcome::Deadlock) {
          sigs.insert(confail::inject::ExploreConfig::deadlockSignature(r));
        }
        return true;
      });
  Answer a;
  a.runs = st.runs;
  a.completed = st.completed;
  a.deadlocks = st.deadlocks;
  a.stepLimited = st.stepLimited;
  a.exceptions = st.exceptions;
  a.deadlockStates.assign(sigs.begin(), sigs.end());
  a.firstFailure = st.firstFailure;
  a.exhausted = st.exhausted;
  a.stats = st;
  return a;
}

/// Time spent in the scenario program, the components layer's share
/// (thread spawning and state construction per run).  Atomic, since the
/// program runs on every explorer worker.
struct ProgramTimer {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

/// The traced exploration: `reg` attached to the explorer, the schedulers
/// and every monitor the scenario builds, and the program timed.
Answer exploreInstrumented(const scenarios::NamedScenario& sc,
                           std::size_t depth, std::size_t workers,
                           confail::obs::Registry& reg, ProgramTimer& timer) {
  Explorer::Options eo = explorerOptions(depth, workers);
  eo.metrics = &reg;
  scenarios::Instruments ins;
  ins.metrics = &reg;
  return explore(eo, [&sc, ins, &timer](sched::VirtualScheduler& s) {
    const auto t0 = Clock::now();
    sc.ifn(s, ins);
    timer.ns += static_cast<std::uint64_t>(secondsSince(t0) * 1e9);
    ++timer.calls;
  });
}

/// Plain exploration time of the tree at `workers`.
double plainSeconds(const scenarios::NamedScenario& sc, std::size_t depth,
                    std::size_t workers) {
  const auto t0 = Clock::now();
  explore(explorerOptions(depth, workers), sc.fn);
  return secondsSince(t0);
}

/// The sched/monitor/components metrics of one instrumented exploration,
/// with the plain times of the same tree at `workers` and at one worker.
void setLayerMetrics(const Answer& a, const confail::obs::Snapshot& snap,
                     const ProgramTimer& timer, double parallelSec,
                     double serialSec, std::size_t workers, Metrics& out) {
  const Explorer::Stats& st = a.stats;
  const std::uint64_t sleepBlocked =
      st.runs - st.completed - st.deadlocks - st.stepLimited - st.exceptions;
  out.set("sched.runs", static_cast<double>(st.runs), "count");
  out.set("sched.sleep_blocked_runs", static_cast<double>(sleepBlocked),
          "count");
  out.set("sched.sleep_blocked_ratio",
          st.runs ? static_cast<double>(sleepBlocked) /
                        static_cast<double>(st.runs)
                  : 0.0,
          "ratio", st.runs);
  out.set("sched.dpor_backtracks", static_cast<double>(st.dporBacktracks),
          "count");
  out.set("sched.runs_per_sec", static_cast<double>(st.runs) / parallelSec,
          "1/s");
  std::uint64_t steps50 = 0, steps99 = 0, stepsN = 0;
  double utilMin = 0.0;
  std::uint64_t utilN = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "explorer.run_steps") {
      steps50 = h.p50;
      steps99 = h.p99;
      stepsN = h.count;
    } else if (h.name == "explorer.worker_utilization_pct") {
      utilMin = static_cast<double>(h.min) / 100.0;
      utilN = h.count;
    }
  }
  out.set("sched.run_steps_p50", static_cast<double>(steps50), "steps",
          stepsN);
  out.set("sched.run_steps_p99", static_cast<double>(steps99), "steps",
          stepsN);
  out.set("components.program_s", static_cast<double>(timer.ns) * 1e-9, "s",
          timer.calls);
  out.set("sched.snapshot_restores", static_cast<double>(st.snapshotRestores),
          "count");
  out.set("sched.replay_steps_avoided",
          static_cast<double>(st.replayStepsAvoided), "count");
  out.set("sched.snapshot_peak_mb",
          static_cast<double>(st.snapshotPeakBytes) / (1024.0 * 1024.0), "MB");
  out.set("sched.worker_efficiency",
          serialSec / (static_cast<double>(workers) * parallelSec), "ratio");
  out.set("sched.steals", static_cast<double>(snap.counter("explorer.steals")),
          "count");
  out.set("sched.worker_utilization_min", utilMin, "ratio", utilN);
  out.set("sched.steps", static_cast<double>(snap.counter("sched.steps")),
          "count");
  std::uint64_t contention = 0, waits = 0, notifies = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("monitor.contention.", 0) == 0) contention += v;
    if (name.rfind("monitor.wait.", 0) == 0) waits += v;
    if (name.rfind("monitor.notify.", 0) == 0) notifies += v;
  }
  out.set("monitor.contentions", static_cast<double>(contention), "count");
  out.set("monitor.waits", static_cast<double>(waits), "count");
  out.set("monitor.notifies", static_cast<double>(notifies), "count");
}

template <typename T>
std::string join(const std::vector<T>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  return os.str();
}

/// The verdict: exhaustion, the distinct deadlock states and the canonical
/// witness.  Run counts are not part of it: at 4 workers the Dpor explorer
/// occasionally executes a few runs fewer than the recorded tree (about one
/// exploration in fifty on a 4-vCPU host), a worker-determinism bug that is
/// tracked as explore.run_count_mismatches instead.
std::string compare(const Answer& got, const Answer& want) {
  if (!got.exhausted) return "tree not exhausted";
  if (got.deadlockStates != want.deadlockStates) {
    return "distinct deadlock states {" + join(got.deadlockStates) +
           "} differ from the recorded set";
  }
  if (got.firstFailure != want.firstFailure) {
    return "canonical first-failure witness {" + join(got.firstFailure) +
           "} differs from the recorded one";
  }
  return "";
}

bool sameRunCounts(const Answer& got, const Answer& want) {
  return got.runs == want.runs && got.completed == want.completed &&
         got.deadlocks == want.deadlocks;
}

class ExploreWorkload final : public Workload {
 public:
  const char* name() const override { return "explore_ff_t5"; }

  void setup(const Ctx& ctx) override {
    // ff_t5 is a fixed registry scenario: the seed selects nothing here.
    // Set-up resolves it and warms the explorer (fiber stacks, snapshot
    // arenas, code pages) with a shallow exhaustion at the batches' worker
    // count.
    sc_ = scenarios::find(kScenario);
    if (sc_ == nullptr) throw std::runtime_error("scenario ff_t5 missing");
    workers_ = ctx.workers;
    const Answer warm =
        explore(explorerOptions(kShallowDepth, workers_), sc_->fn);
    if (!warm.exhausted || warm.deadlocks == 0) {
      throw std::runtime_error("warm-up exploration did not exhaust");
    }
  }

  RepOutcome rep(Tracer* tr) override {
    Tracer::Scope span(tr, "sched.explore");
    const auto t0 = Clock::now();
    if (tr == nullptr) {
      last_ = explore(explorerOptions(kDepth, workers_), sc_->fn);
    } else {
      reg_ = std::make_unique<confail::obs::Registry>();
      timer_ = std::make_unique<ProgramTimer>();
      last_ = exploreInstrumented(*sc_, kDepth, workers_, *reg_, *timer_);
      traced_ = last_;
    }
    RepOutcome r;
    r.seconds = secondsSince(t0);
    r.attempted = last_.runs;
    // Deadlocks are the verdict; runs cut by the step limit or an
    // exception are the failures.
    r.failed = last_.stepLimited + last_.exceptions;
    if (!sameRunCounts(last_, knownAnswer())) ++runCountMismatches_;
    return r;
  }

  std::string check() const override { return compare(last_, knownAnswer()); }

  std::string checkCorrupted() const override {
    Answer bad = last_;
    if (!bad.firstFailure.empty()) {
      bad.firstFailure.back() = bad.firstFailure.back() == 0 ? 1 : 0;
    } else {
      bad.firstFailure.push_back(0);
    }
    return compare(bad, knownAnswer());
  }

  void reportExtras(double verdictSeconds, std::size_t reps,
                    Metrics& out) const override {
    (void)verdictSeconds;  // the verdict time is the figure itself
    out.set("explore.runs", static_cast<double>(last_.runs), "count");
    out.set("explore.distinct_deadlock_states",
            static_cast<double>(last_.deadlockStates.size()), "count");
    out.set("explore.run_count_mismatches",
            static_cast<double>(runCountMismatches_), "count", reps);
  }

  void layers(const Ctx&, Tracer& tr, double plainSec,
              Metrics& out) override {
    // Worker efficiency needs the same tree explored serially.
    tr.newRun("probe.sched.serial");
    double serialSec = 0.0;
    {
      Tracer::Scope span(&tr, "sched.explore.serial");
      serialSec = plainSeconds(*sc_, kDepth, 1);
    }
    const confail::obs::Snapshot snap = reg_->snapshot();
    setLayerMetrics(traced_, snap, *timer_, plainSec, serialSec, workers_,
                    out);
    tr.attach("explore_registry", snap.toJson());
  }

  void reference(const Ctx& ctx, Tracer& tr, Metrics& out) override {
    const scenarios::NamedScenario* sc = scenarios::find(kScenario);
    tr.newRun("reference.sched");
    confail::obs::Registry reg;
    ProgramTimer timer;
    Answer a;
    double parallelSec = 0.0, serialSec = 0.0;
    {
      Tracer::Scope span(&tr, "sched.explore");
      a = exploreInstrumented(*sc, kShallowDepth, ctx.workers, reg, timer);
    }
    {
      Tracer::Scope span(&tr, "sched.explore.plain");
      parallelSec = plainSeconds(*sc, kShallowDepth, ctx.workers);
    }
    {
      Tracer::Scope span(&tr, "sched.explore.serial");
      serialSec = plainSeconds(*sc, kShallowDepth, 1);
    }
    setLayerMetrics(a, reg.snapshot(), timer, parallelSec, serialSec,
                    ctx.workers, out);
  }

  std::string provenance() const override {
    return "\"explore_workers\": " + std::to_string(workers_) +
           ", \"explore_depth\": " + std::to_string(kDepth);
  }

 private:
  const scenarios::NamedScenario* sc_ = nullptr;
  std::size_t workers_ = 1;
  Answer last_;
  Answer traced_;  ///< the last traced batch's
  std::unique_ptr<confail::obs::Registry> reg_;
  std::unique_ptr<ProgramTimer> timer_;
  std::uint64_t runCountMismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeExploreWorkload() {
  return std::make_unique<ExploreWorkload>();
}

}  // namespace cfbench
