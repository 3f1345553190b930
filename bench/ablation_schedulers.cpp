// Ablation A: scheduler strategies vs bug exposure.
//
// The paper's premise is that free-running execution is a poor way to find
// concurrency failures and that controlled (deterministic) execution is
// needed.  This bench quantifies that on the substrate: a schedule-
// dependent FF-T5 bug (BoundedBuffer with notify() instead of notifyAll(),
// scenarios::ffT5Notify) is hunted by five strategies under equal run
// budgets:
//   round-robin       (the "fair JVM" — a single deterministic schedule)
//   random walk       (stress testing with seeds; ConTest-style)
//   PCT               (priority-based probabilistic concurrency testing)
//   exhaustive DFS    (bounded model checking of the schedule tree)
//   exhaustive+prune  (same, with (depth, fingerprint) state dedup; its
//                      budget is sized to exhaust the deduped tree, which
//                      turns the budget-bounded search into a proof)
// Reported: exposure rate, runs-to-first-failure, and whether the failure
// is *proved* reachable.  Results also land in
// BENCH_ablation_schedulers.json; `--smoke` shrinks the seed budgets.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "confail/components/scenarios.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace ev = confail::events;
namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;

namespace {

bool runOnce(sched::Strategy& strategy) {
  sched::VirtualScheduler::Options so;
  so.maxSteps = 20000;
  sched::VirtualScheduler s(strategy, so);
  scenarios::ffT5Notify(s, {});
  return s.run().outcome == sched::Outcome::Deadlock;
}

struct Row {
  std::string strategy;
  std::uint64_t runs = 0;
  std::uint64_t exposed = 0;
  std::uint64_t firstFailure = 0;  // 0 = never
  std::string notes;
};

void printRow(const Row& r) {
  std::printf("%-18s %8llu %10llu %14s %s\n", r.strategy.c_str(),
              static_cast<unsigned long long>(r.runs),
              static_cast<unsigned long long>(r.exposed),
              r.firstFailure ? std::to_string(r.firstFailure).c_str() : "-",
              r.notes.c_str());
}

Row exploreRow(const char* name, std::uint64_t budget, bool prune,
               const char* notesIfExhausted) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = budget;
  eo.maxSteps = 20000;
  eo.fingerprintPruning = prune;
  sched::ExhaustiveExplorer explorer(eo);
  std::uint64_t runs = 0, first = 0;
  auto stats = explorer.explore(
      [](sched::VirtualScheduler& s) { scenarios::ffT5Notify(s, {}); },
      [&runs, &first](const std::vector<ev::ThreadId>&,
                      const sched::RunResult& r) {
        ++runs;
        if (r.outcome == sched::Outcome::Deadlock && first == 0) first = runs;
        return true;
      });
  Row row;
  row.strategy = name;
  row.runs = stats.runs;
  row.exposed = stats.deadlocks;
  row.firstFailure = first;
  row.notes = stats.exhausted ? notesIfExhausted : "budget-bounded";
  if (prune && stats.dedupedStates > 0) {
    row.notes += " (" + std::to_string(stats.dedupedStates) + " states deduped)";
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("=== Ablation A: scheduling strategy vs failure exposure ===\n");
  std::printf("target bug: FF-T5 (notify() where notifyAll() is required)\n\n");
  std::printf("%-18s %8s %10s %14s %s\n", "strategy", "runs", "exposed",
              "first-failure", "notes");

  const std::uint64_t budget = smoke ? 60 : 200;
  std::vector<Row> rows;

  {
    sched::RoundRobinStrategy rr;
    bool hit = runOnce(rr);
    rows.push_back({"round-robin", 1, hit ? 1ull : 0ull, hit ? 1ull : 0ull,
                    "single deterministic fair schedule"});
  }

  {
    Row row{"random-walk", budget, 0, 0, "seeded stress (ConTest-style noise)"};
    for (std::uint64_t seed = 1; seed <= budget; ++seed) {
      sched::RandomWalkStrategy rw(seed);
      if (runOnce(rw)) {
        ++row.exposed;
        if (row.firstFailure == 0) row.firstFailure = seed;
      }
    }
    rows.push_back(row);
  }

  {
    Row row{"pct(d=3)", budget, 0, 0, "probabilistic, depth-bounded"};
    for (std::uint64_t seed = 1; seed <= budget; ++seed) {
      sched::PctStrategy pct(seed, /*depth=*/3, /*expectedSteps=*/300);
      if (runOnce(pct)) {
        ++row.exposed;
        if (row.firstFailure == 0) row.firstFailure = seed;
      }
    }
    rows.push_back(row);
  }

  rows.push_back(
      exploreRow("exhaustive", budget, false, "tree fully covered (proof)"));
  // The pruned explorer gets a budget large enough to *exhaust* the deduped
  // tree (~6.6k runs) — a full reachability proof that the unpruned tree
  // (astronomically larger) cannot deliver under any practical budget.
  rows.push_back(exploreRow("exhaustive+prune", 10000, true,
                            "pruned tree covered (proof)"));

  for (const Row& r : rows) printRow(r);

  std::printf("\nreading: the fair deterministic schedule alone usually\n"
              "misses the bug; randomized strategies expose it with some\n"
              "probability; the exhaustive explorer finds it reliably and\n"
              "can prove reachability — the paper's argument for controlled\n"
              "execution made quantitative.  Fingerprint pruning collapses\n"
              "the schedule tree far enough to *exhaust* it — the proof the\n"
              "unpruned search cannot reach under any practical budget.\n");

  confail::benchjson::Writer json;
  json.beginObject();
  json.field("bench", "ablation_schedulers");
  json.field("smoke", smoke);
  json.field("budget", budget);
  json.key("rows");
  json.beginArray();
  for (const Row& r : rows) {
    json.beginObject();
    json.field("strategy", r.strategy);
    json.field("runs", r.runs);
    json.field("exposed", r.exposed);
    json.field("first_failure", r.firstFailure);
    json.field("notes", r.notes);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  bool wrote = json.writeFile("BENCH_ablation_schedulers.json");
  if (wrote) {
    std::printf("\nwrote BENCH_ablation_schedulers.json\n");
  } else {
    std::printf("\nFAIL: could not write BENCH_ablation_schedulers.json\n");
  }

  int strategiesThatExposed = 0;
  for (const Row& r : rows) strategiesThatExposed += r.exposed > 0 ? 1 : 0;
  const std::uint64_t exhaustiveFirst = rows[3].firstFailure;
  const std::uint64_t prunedFirst = rows[4].firstFailure;
  const bool ok = strategiesThatExposed >= 2 && exhaustiveFirst > 0 &&
                  prunedFirst > 0 && wrote;
  std::printf("\n%s\n", ok ? "ABLATION A: OK" : "ABLATION A: FAILURES");
  return ok ? 0 : 1;
}
