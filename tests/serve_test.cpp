// Campaign service tests: the JobSpec grid contract, the spool store, and
// the daemon's resume guarantee — a SIGKILLed server restarted over the
// same root re-runs only the missing shards and produces byte-identical
// merged reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "confail/events/trace.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/serve/client.hpp"
#include "confail/serve/merge.hpp"
#include "confail/serve/server.hpp"
#include "confail/serve/store.hpp"
#include "confail/support/rng.hpp"

namespace fs = std::filesystem;
namespace inject = confail::inject;
namespace serve = confail::serve;
namespace taxonomy = confail::taxonomy;
using Reduction = confail::sched::ExhaustiveExplorer::Reduction;

namespace {

// A scratch spool root, removed on destruction.
struct TempRoot {
  fs::path path;
  TempRoot() {
    path = fs::temp_directory_path() /
           ("confail-serve-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

inject::JobSpec smallSpec() {
  inject::JobSpec spec;
  spec.name = "t";
  spec.scenarios = {"lock_order"};
  spec.classes = {taxonomy::FailureClass::FF_T2};
  spec.maxRuns = 60;
  spec.maxSteps = 400;
  return spec;
}

std::string slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(serve::CampaignStore::readFile(path, out)) << path;
  return out;
}

ino_t inodeOf(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

std::size_t journalLines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++n;
  }
  return n;
}

}  // namespace

// ---- JobSpec ---------------------------------------------------------------

TEST(JobSpec, RoundTripIsByteIdentical) {
  inject::JobSpec spec;
  spec.name = "nightly.full-1";
  spec.scenarios = {"fig2", "lock_order"};
  spec.classes = {taxonomy::FailureClass::FF_T5,
                  taxonomy::FailureClass::FF_T2};
  spec.reductions = {Reduction::None, Reduction::Dpor};
  spec.maxRuns = 123;
  spec.maxSteps = 456;
  spec.maxBranchDepth = 7;
  spec.workers = 3;
  spec.negativeControls = false;

  const std::string doc = spec.toJson();
  inject::JobSpec back;
  std::string error;
  ASSERT_TRUE(inject::JobSpec::parse(doc, back, error)) << error;
  EXPECT_EQ(back.toJson(), doc);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.scenarios, spec.scenarios);
  EXPECT_EQ(back.classes, spec.classes);
  EXPECT_EQ(back.reductions, spec.reductions);
  EXPECT_EQ(back.maxRuns, 123u);
  EXPECT_EQ(back.maxSteps, 456u);
  EXPECT_EQ(back.maxBranchDepth, 7u);
  EXPECT_EQ(back.workers, 3u);
  EXPECT_FALSE(back.negativeControls);

  // Content-derived ids: equal specs hash to equal ids.
  EXPECT_EQ(serve::CampaignStore::jobIdFor(spec),
            serve::CampaignStore::jobIdFor(back));
}

TEST(JobSpec, ParseRejectsMalformedDocuments) {
  inject::JobSpec out;
  std::string error;
  EXPECT_FALSE(inject::JobSpec::parse("not json at all", out, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(inject::JobSpec::parse("{\"schema\": \"wrong.v1\"}", out,
                                      error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
  EXPECT_FALSE(inject::JobSpec::parse(
      "{\"schema\": \"confail.job.v1\", \"classes\": [\"FF-T99\"]}", out,
      error));
  EXPECT_FALSE(inject::JobSpec::parse(
      "{\"schema\": \"confail.job.v1\", \"reductions\": [\"fancy\"]}", out,
      error));
  EXPECT_FALSE(inject::JobSpec::parse(
      "{\"schema\": \"confail.job.v1\", \"max_runs\": \"many\"}", out,
      error));
}

TEST(JobSpec, ValidateCatchesSemanticErrors) {
  inject::JobSpec spec = smallSpec();
  EXPECT_EQ(spec.validate(), "");

  inject::JobSpec badName = smallSpec();
  badName.name = "has space";
  EXPECT_NE(badName.validate(), "");

  inject::JobSpec badScenario = smallSpec();
  badScenario.scenarios = {"no_such_scenario"};
  EXPECT_NE(badScenario.validate(), "");

  inject::JobSpec badClass = smallSpec();
  badClass.classes = {taxonomy::FailureClass::EF_T1};  // not injectable
  EXPECT_NE(badClass.validate(), "");

  inject::JobSpec badBudget = smallSpec();
  badBudget.maxRuns = 0;
  EXPECT_NE(badBudget.validate(), "");

  inject::JobSpec badReductions = smallSpec();
  badReductions.reductions.clear();
  EXPECT_NE(badReductions.validate(), "");
}

TEST(JobSpec, ExpandShardsIsDeterministicAndOrdered) {
  inject::JobSpec spec;
  spec.name = "grid";
  spec.scenarios = {"fig2", "lock_order"};
  spec.reductions = {Reduction::None, Reduction::Sleep};
  spec.maxRuns = 50;

  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);
  ASSERT_FALSE(shards.empty());
  // Indices are positional, injection shards precede controls, and the
  // expansion is stable across calls.
  bool seenControl = false;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].index, i);
    if (shards[i].control) seenControl = true;
    if (seenControl) {
      EXPECT_TRUE(shards[i].control) << shards[i].describe();
    }
  }
  EXPECT_TRUE(seenControl);
  // Controls only for clean scenarios: lock_order is fault-seeded, so the
  // grid carries fig2 x 2 reductions of negative controls.
  std::size_t controls = 0;
  for (const inject::ShardSpec& s : shards) controls += s.control ? 1 : 0;
  EXPECT_EQ(controls, 2u);

  const std::vector<inject::ShardSpec> again = inject::expandShards(spec);
  ASSERT_EQ(again.size(), shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(again[i].describe(), shards[i].describe());
  }

  inject::JobSpec invalid = spec;
  invalid.scenarios = {"bogus"};
  EXPECT_THROW(inject::expandShards(invalid), confail::UsageError);
}

// ---- store -----------------------------------------------------------------

TEST(CampaignStore, SubmitAdoptShardRoundTrip) {
  TempRoot root;
  serve::CampaignStore store(root.str());
  ASSERT_TRUE(store.init());

  const inject::JobSpec spec = smallSpec();
  const std::string id = store.submit(spec);
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(store.submit(spec), id);  // idempotent
  EXPECT_EQ(store.scanQueue(), std::vector<std::string>{id});

  inject::JobSpec adopted;
  std::string error;
  ASSERT_TRUE(store.adoptJob(id, adopted, error)) << error;
  EXPECT_EQ(adopted.toJson(), spec.toJson());
  EXPECT_TRUE(store.scanQueue().empty());
  EXPECT_EQ(store.listJobs(), std::vector<std::string>{id});

  // Run one shard and round-trip it through the on-disk form.
  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);
  ASSERT_FALSE(shards.empty());
  inject::RunShardOptions ro;
  ro.captureEvents = true;
  const inject::ShardResult r = inject::runShard(spec, shards[0], ro);
  ASSERT_TRUE(store.writeShard(id, r));

  inject::ShardResult back;
  ASSERT_TRUE(store.readShard(id, 0, back));
  EXPECT_EQ(back.spec.describe(), r.spec.describe());
  EXPECT_EQ(back.cell.runs, r.cell.runs);
  EXPECT_EQ(back.findings.size(), r.findings.size());
  EXPECT_EQ(back.eventsJsonl, r.eventsJsonl);
  EXPECT_EQ(serve::CampaignStore::shardToJson(back),
            serve::CampaignStore::shardToJson(r));

  // The same shard with its events streamed from the captured run, line by
  // line: the file must be exactly the one serializer's document.
  confail::events::Trace run;
  inject::ShardResult streamed = inject::runShard(spec, shards[0], {}, run);
  ASSERT_GT(run.size(), 0u);
  EXPECT_TRUE(streamed.eventsJsonl.empty());
  ASSERT_TRUE(store.writeShard(id, streamed, &run));
  streamed.eventsJsonl = confail::obs::toJsonl(run);
  EXPECT_EQ(streamed.eventsJsonl, r.eventsJsonl);
  EXPECT_EQ(slurp(store.shardPath(id, 0)),
            serve::CampaignStore::shardToJson(streamed) + "\n");
  inject::ShardResult streamedBack;
  ASSERT_TRUE(store.readShard(id, 0, streamedBack));
  EXPECT_EQ(streamedBack.eventsJsonl, streamed.eventsJsonl);

  const std::vector<bool> done = store.completedShards(id, shards.size());
  EXPECT_TRUE(done[0]);
  for (std::size_t i = 1; i < done.size(); ++i) EXPECT_FALSE(done[i]);
}

TEST(CampaignStore, NamesSurviveJsonlAndShardRoundTrips) {
  // Two spaces, a quote, a backslash, a tab and a newline: each must come
  // back byte for byte (an earlier line flattener merged runs of spaces).
  const std::vector<std::string> names = {"a  b", "say \"hi\"", "c:\\tmp",
                                          "col\tumn", "two\nlines",
                                          "  edges  "};
  namespace ev = confail::events;
  ev::Trace run;
  for (std::uint32_t id = 0; id < names.size(); ++id) {
    run.nameThread(id, names[id]);
    run.nameMonitor(id, names[id]);
    run.nameVar(id, names[id]);
    run.nameMethod(id, names[id]);
    ev::Event e;
    e.thread = id;
    e.kind = ev::EventKind::GuardEval;
    e.monitor = id;
    e.method = id;
    e.aux = id;
    run.record(e);
    e.kind = ev::EventKind::Write;
    run.record(e);
  }
  auto expectNames = [&names](const std::string& jsonl) {
    confail::ingest::JsonlDecoder dec;
    std::size_t events = 0;
    const auto count = [&events](const ev::Event&) { ++events; };
    dec.feed(jsonl, count);
    dec.flush(count);
    EXPECT_EQ(events, 2 * names.size());
    EXPECT_EQ(dec.stats().malformed, 0u);
    for (std::uint32_t id = 0; id < names.size(); ++id) {
      EXPECT_EQ(dec.names().threadName(id), names[id]);
      EXPECT_EQ(dec.names().monitorName(id), names[id]);
      EXPECT_EQ(dec.names().varName(id), names[id]);
      EXPECT_EQ(dec.names().methodName(id), names[id]);
    }
  };
  const std::string jsonl = confail::obs::toJsonl(run);
  expectNames(jsonl);

  TempRoot root;
  serve::CampaignStore store(root.str());
  fs::create_directories(fs::path(store.shardPath("names", 0)).parent_path());
  inject::ShardResult r;
  r.spec.control = true;
  r.spec.scenario = "fig2";
  ASSERT_TRUE(store.writeShard("names", r, &run));
  inject::ShardResult back;
  ASSERT_TRUE(store.readShard("names", 0, back));
  EXPECT_EQ(back.eventsJsonl, jsonl);
  expectNames(back.eventsJsonl);
}

TEST(CampaignStore, ShardParserSurvivesSeededMutationsOfATornShard) {
  // An FF-T3 shard: its captured run spins to the step limit, so the file
  // is megabytes of escaped events behind a small header.
  inject::JobSpec spec;
  spec.classes = {taxonomy::FailureClass::FF_T3};
  spec.maxRuns = 20;
  spec.negativeControls = false;
  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);
  ASSERT_FALSE(shards.empty());
  confail::events::Trace run;
  const inject::ShardResult r = inject::runShard(spec, shards[0], {}, run);
  TempRoot root;
  const std::string path = (root.path / "shard.json").string();
  ASSERT_TRUE(serve::CampaignStore::writeShardFile(path, r, &run));
  const std::string text = slurp(path);
  const std::size_t close = text.rfind('}');
  const std::size_t header = text.find("\"events_jsonl\"");
  ASSERT_NE(close, std::string::npos);
  ASSERT_NE(header, std::string::npos);
  ASSERT_GT(text.size(), 1000000u);

  inject::ShardResult out;
  std::string error;
  ASSERT_TRUE(serve::CampaignStore::shardFromJson(text, out, error)) << error;

  confail::Xoshiro256 rng(2024);
  // Half the offsets fall in the header, half anywhere before the end.
  auto offset = [&](std::size_t end) {
    return static_cast<std::size_t>(
        rng.chance(0.5) ? rng.below(header + 32) : rng.below(end));
  };
  for (int i = 0; i < 40; ++i) {
    const std::size_t cut = offset(close + 1);
    SCOPED_TRACE("truncated at " + std::to_string(cut));
    EXPECT_FALSE(
        serve::CampaignStore::shardFromJson(text.substr(0, cut), out, error));
  }
  static const char kBytes[] = {'"', '\\', '{', '}', '[', ']', ',', ':',
                                '0', 'e', '-', ' ', '\0', '\xff', 'n'};
  for (int i = 0; i < 80; ++i) {
    std::string m = text;
    const std::size_t at = offset(m.size());
    if (i % 2 == 0) {
      m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
    } else {
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
               kBytes[rng.below(sizeof kBytes)]);
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + " at " + std::to_string(at));
    // Rejected or decoded; either way without a crash or a sanitizer report.
    (void)serve::CampaignStore::shardFromJson(m, out, error);
  }
}

// ---- daemon ----------------------------------------------------------------

TEST(Server, RunsSubmittedJobToCompletion) {
  TempRoot root;
  const inject::JobSpec spec = smallSpec();
  const std::string id = serve::submitJob(root.str(), spec);
  ASSERT_FALSE(id.empty());

  confail::obs::Registry reg;
  serve::ServerOptions opts;
  opts.root = root.str();
  opts.poolSize = 2;
  opts.subprocess = false;  // in-process pool: sanitizer-safe
  opts.exitWhenIdle = true;
  opts.metrics = &reg;
  serve::Server server(std::move(opts));
  EXPECT_EQ(server.run(), 0);

  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_GT(st.shardsTotal, 0u);
  EXPECT_EQ(st.shardsDone, st.shardsTotal);
  EXPECT_EQ(st.shardsFailed, 0u);

  serve::JobResults results;
  ASSERT_TRUE(serve::jobResults(root.str(), id, results));
  ASSERT_TRUE(results.complete);
  EXPECT_NE(results.findingsJson.find("confail.findings.v1"),
            std::string::npos);
  EXPECT_NE(results.sarif.find("2.1.0"), std::string::npos);
  EXPECT_NE(results.matrixJson.find("confail.injection.v1"),
            std::string::npos);

  // The heartbeat feed carries every shard's captured run.
  const serve::CampaignStore& store = server.store();
  EXPECT_GT(fs::file_size(store.eventsPath(id)), 0u);
  EXPECT_EQ(journalLines(store.journalPath(id)), st.shardsTotal);

  // Every landing is timed, and every byte it appended is counted.
  const confail::obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("serve.events_bytes"),
            fs::file_size(store.eventsPath(id)));
  const auto land = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.name == "serve.land_ms"; });
  ASSERT_NE(land, snap.histograms.end());
  EXPECT_EQ(land->count, st.shardsTotal);
}

TEST(Server, WakesOnShardCompletionNotOnPollTimeout) {
  TempRoot root;
  const std::string id = serve::submitJob(root.str(), smallSpec());
  ASSERT_FALSE(id.empty());

  // A minute-long poll: the job can only drain in time if every finished
  // shard wakes the daemon.
  confail::obs::Registry reg;
  serve::ServerOptions opts;
  opts.root = root.str();
  opts.poolSize = 2;
  opts.subprocess = false;
  opts.exitWhenIdle = true;
  opts.pollMs = 60000;
  opts.metrics = &reg;
  serve::Server server(std::move(opts));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(server.run(), 0);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);

  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  // Heartbeats count only waits that timed out idle.
  EXPECT_EQ(reg.snapshot().counter("serve.heartbeats"), 0u);
}

TEST(Server, CrashResumeRerunsOnlyMissingShards) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
#endif
#endif
  TempRoot root;
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};  // enough shards to die mid-job
  const std::string id = serve::submitJob(root.str(), spec);
  ASSERT_FALSE(id.empty());
  const std::size_t total = inject::expandShards(spec).size();
  ASSERT_GT(total, 2u);

  const serve::CampaignStore store(root.str());

  // First daemon: forked child, serial in-process pool (SIGKILL takes all
  // its work down with it — no orphan workers racing the restarted daemon).
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    serve::ServerOptions opts;
    opts.root = root.str();
    opts.poolSize = 1;
    opts.subprocess = false;
    opts.exitWhenIdle = true;
    serve::Server server(std::move(opts));
    ::_exit(server.run());
  }

  // Kill the daemon once it has landed some but not all shards.  If it
  // finishes first the kill degrades to reaping a finished child and the
  // "resume" below trivially re-runs nothing — still a valid pass, but the
  // budgets are sized so that never happens in practice.
  std::size_t landed = 0;
  for (int spin = 0; spin < 20000; ++spin) {
    const std::vector<bool> done = store.completedShards(id, total);
    landed = 0;
    for (const bool d : done) landed += d ? 1 : 0;
    if (landed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_GE(landed, 1u);

  const std::vector<bool> doneBeforeResume = store.completedShards(id, total);
  std::size_t landedAtKill = 0;
  for (const bool d : doneBeforeResume) landedAtKill += d ? 1 : 0;
  ASSERT_LT(landedAtKill, total) << "daemon finished before the kill";
  struct Landed {
    std::size_t index;
    ino_t inode;
    std::string bytes;
  };
  std::vector<Landed> landedFiles;
  for (std::size_t i = 0; i < total; ++i) {
    if (!doneBeforeResume[i]) continue;
    const std::string path = store.shardPath(id, i);
    landedFiles.push_back({i, inodeOf(path), slurp(path)});
  }

  // Second daemon over the same root: must finish the job.
  serve::ServerOptions opts;
  opts.root = root.str();
  opts.poolSize = 2;
  opts.subprocess = false;
  opts.exitWhenIdle = true;
  serve::Server server(std::move(opts));
  EXPECT_EQ(server.run(), 0);

  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_EQ(st.shardsDone, total);

  // Zero re-runs: a re-run shard would rename a fresh file over its old
  // one, so every file that had landed before the kill keeps its inode and
  // its bytes.
  for (const Landed& l : landedFiles) {
    const std::string path = store.shardPath(id, l.index);
    EXPECT_EQ(inodeOf(path), l.inode) << "shard " << l.index << " re-ran";
    EXPECT_EQ(slurp(path), l.bytes) << "shard " << l.index << " re-ran";
  }
  // Exactly-once journaling across the crash, including a shard that
  // landed after the first daemon's last journal line.
  EXPECT_EQ(journalLines(store.journalPath(id)), total);
  for (const bool j : store.journaledShards(id, total)) EXPECT_TRUE(j);

  // Byte-identical reports: an uninterrupted run of the same spec in a
  // fresh root merges to the same findings and SARIF documents.
  TempRoot cleanRoot;
  ASSERT_EQ(serve::submitJob(cleanRoot.str(), spec), id);
  serve::ServerOptions cleanOpts;
  cleanOpts.root = cleanRoot.str();
  cleanOpts.poolSize = 1;
  cleanOpts.subprocess = false;
  cleanOpts.exitWhenIdle = true;
  serve::Server cleanServer(std::move(cleanOpts));
  EXPECT_EQ(cleanServer.run(), 0);

  const serve::CampaignStore cleanStore(cleanRoot.str());
  EXPECT_EQ(slurp(store.findingsPath(id)),
            slurp(cleanStore.findingsPath(id)));
  EXPECT_EQ(slurp(store.sarifPath(id)), slurp(cleanStore.sarifPath(id)));
}

TEST(Server, MalformedSubmissionIsDroppedNotLooped) {
  TempRoot root;
  serve::CampaignStore store(root.str());
  ASSERT_TRUE(store.init());
  ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(
      (root.path / "queue" / "broken.json").string(), "{ not json"));

  serve::ServerOptions opts;
  opts.root = root.str();
  opts.subprocess = false;
  opts.exitWhenIdle = true;
  serve::Server server(std::move(opts));
  EXPECT_EQ(server.run(), 1);  // the dropped job counts as failed

  EXPECT_TRUE(store.scanQueue().empty());
  serve::JobState st;
  ASSERT_TRUE(store.readState("broken", st));
  EXPECT_EQ(st.status, "failed");
}

TEST(Server, DrainRequestStopsTheLoop) {
  TempRoot root;
  serve::CampaignStore store(root.str());
  ASSERT_TRUE(store.init());
  ASSERT_TRUE(store.requestDrain());
  EXPECT_TRUE(store.drainRequested());

  serve::ServerOptions opts;
  opts.root = root.str();
  opts.subprocess = false;
  serve::Server server(std::move(opts));  // no exitWhenIdle: drain ends it
  EXPECT_EQ(server.run(), 0);
  EXPECT_FALSE(store.drainRequested());  // consumed on exit
}

// ---- merge -----------------------------------------------------------------

TEST(Merge, DedupsByFingerprintAcrossShards) {
  const inject::JobSpec spec = smallSpec();
  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);
  std::vector<inject::ShardResult> results;
  for (const inject::ShardSpec& s : shards) {
    results.push_back(inject::runShard(spec, s));
  }
  const serve::MergedReports once = serve::mergeShards(spec, "job", results);

  // Feeding every shard twice must not change the merged findings: the
  // duplicates are dropped by fingerprint.
  std::vector<inject::ShardResult> doubled = results;
  for (const inject::ShardResult& r : results) doubled.push_back(r);
  const serve::MergedReports twice =
      serve::mergeShards(spec, "job", doubled);
  EXPECT_EQ(twice.findingsJson, once.findingsJson);
  EXPECT_EQ(twice.sarif, once.sarif);
  EXPECT_EQ(twice.uniqueFindings, once.uniqueFindings);
  EXPECT_GT(twice.duplicates, once.duplicates);
}
