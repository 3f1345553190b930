// Campaign service tests: the JobSpec grid contract, the spool store, and
// the daemon's resume guarantee — a SIGKILLed server restarted over the
// same root re-runs only the missing shards and produces byte-identical
// merged reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "confail/components/scenario_registry.hpp"
#include "confail/events/trace.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/inject/plan.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/serve/client.hpp"
#include "confail/serve/merge.hpp"
#include "confail/serve/server.hpp"
#include "confail/serve/store.hpp"
#include "confail/support/rng.hpp"
#include "json_mutate.hpp"

namespace fs = std::filesystem;
namespace inject = confail::inject;
namespace serve = confail::serve;
namespace taxonomy = confail::taxonomy;
using Reduction = confail::sched::ExhaustiveExplorer::Reduction;

#if defined(__SANITIZE_THREAD__)
#define CONFAIL_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CONFAIL_UNDER_TSAN 1
#endif
#endif

namespace {

#if defined(CONFAIL_UNDER_TSAN)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif

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

/// The lines of JSONL text, sorted: a feed's content up to landing order.
std::vector<std::string> sortedLines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Drain every job queued or adopted under `root` with a two-worker pool.
int serveToIdle(const std::string& root, bool subprocess) {
  serve::ServerOptions opts;
  opts.root = root;
  opts.poolSize = 2;
  opts.subprocess = subprocess;
  opts.workerBinary = CONFAIL_CLI;
  opts.exitWhenIdle = true;
  return serve::Server(std::move(opts)).run();
}

/// How a shard's pair of files can be left torn: by a worker killed
/// between its two renames, by a damaged sidecar, or by an older daemon.
enum class Torn { SidecarOnly, NoSidecar, ShortSidecar, LongSidecar, V1 };

const char* tornName(Torn t) {
  switch (t) {
    case Torn::SidecarOnly: return "sidecar without header";
    case Torn::NoSidecar: return "header without sidecar";
    case Torn::ShortSidecar: return "short sidecar";
    case Torn::LongSidecar: return "long sidecar";
    case Torn::V1: return "confail.shard.v1 document";
  }
  return "?";
}

/// Leave shard 0 of `spec` torn in a fresh spool with the job adopted,
/// serve it, and require the shard to run again and the job to end as an
/// untorn run of it does: completed, one journal line per shard, and each
/// shard's events in the feed exactly once.
void expectTornShardReruns(const inject::JobSpec& spec, bool subprocess,
                           Torn torn) {
  SCOPED_TRACE(std::string(tornName(torn)) +
               (subprocess ? ", subprocess pool" : ", in-process pool"));
  const std::size_t total = inject::expandShards(spec).size();
  TempRoot cleanRoot;
  const std::string id = serve::submitJob(cleanRoot.str(), spec);
  ASSERT_EQ(serveToIdle(cleanRoot.str(), false), 0);
  const serve::CampaignStore cleanStore(cleanRoot.str());

  TempRoot root;
  const serve::CampaignStore store(root.str());
  ASSERT_EQ(store.submit(spec), id);
  inject::JobSpec adopted;
  std::string error;
  ASSERT_TRUE(store.adoptJob(id, adopted, error)) << error;
  confail::events::Trace run;
  const inject::ShardResult r =
      inject::runShard(spec, inject::expandShards(spec)[0], {}, run);
  ASSERT_TRUE(store.writeShard(id, r, &run));
  const std::string header = store.shardPath(id, 0);
  const std::string sidecar = store.shardEventsPath(id, 0);
  const std::string events = slurp(sidecar);
  ASSERT_FALSE(events.empty());
  switch (torn) {
    case Torn::SidecarOnly:
      fs::remove(header);
      break;
    case Torn::NoSidecar:
      fs::remove(sidecar);
      break;
    case Torn::ShortSidecar:
      fs::resize_file(sidecar, events.size() - 1);
      break;
    case Torn::LongSidecar:
      ASSERT_TRUE(serve::CampaignStore::appendFile(sidecar, events));
      break;
    case Torn::V1: {
      // The old single-file form: the events escaped inside the document.
      std::string doc = slurp(header);
      const std::size_t at = doc.find("\"events_bytes\"");
      ASSERT_NE(at, std::string::npos);
      std::string escaped;
      confail::obs::appendJsonEscaped(escaped, events);
      doc = doc.substr(0, at) + "\"events_jsonl\": \"" + escaped + "\"\n}\n";
      const std::size_t schema = doc.find("confail.shard.v2");
      ASSERT_NE(schema, std::string::npos);
      doc.replace(schema, 16, "confail.shard.v1");
      ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(header, doc));
      fs::remove(sidecar);
      break;
    }
  }
  ASSERT_FALSE(store.completedShards(id, total)[0]);

  ASSERT_EQ(serveToIdle(root.str(), subprocess), 0);
  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_EQ(st.shardsDone, total);
  EXPECT_TRUE(store.completedShards(id, total)[0]);
  EXPECT_EQ(slurp(sidecar), events);
  EXPECT_EQ(journalLines(store.journalPath(id)), total);
  std::string sidecars;
  for (std::size_t i = 0; i < total; ++i) {
    sidecars += slurp(store.shardEventsPath(id, i));
  }
  const std::vector<std::string> feed =
      sortedLines(slurp(store.eventsPath(id)));
  EXPECT_EQ(feed, sortedLines(sidecars));
  EXPECT_EQ(feed, sortedLines(slurp(cleanStore.eventsPath(id))));
  EXPECT_EQ(slurp(store.findingsPath(id)), slurp(cleanStore.findingsPath(id)));
}

/// `doc` (JsonWriter's pretty print) as one line, `{ "k": v, ... }`: the
/// layout json_mutation::mutate expects.  Newlines in JsonWriter output are
/// all structural; those in strings are escaped.
std::string oneLine(const std::string& doc) {
  std::string out;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i] != '\n') {
      out += doc[i];
      continue;
    }
    out += ' ';
    while (i + 1 < doc.size() && doc[i + 1] == ' ') ++i;
  }
  return out;
}

/// A `--worker-bin` that speaks the worker protocol by handing each request
/// to a one-request real worker, except a request for shard `victim`: on
/// that one it SIGKILLs itself before replying, every time or (`once`) only
/// the first time.  Returns its path.
std::string killingWorker(const fs::path& dir, std::size_t victim,
                          bool once) {
  const std::string path = (dir / "killing-worker.sh").string();
  const std::string marker = (dir / "killed").string();
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n"
        << "while IFS=' ' read -r id shard; do\n"
        << "  if [ \"$shard\" = " << victim << " ]"
        << (once ? " && mkdir '" + marker + "' 2>/dev/null" : "")
        << "; then kill -KILL $$; fi\n"
        << "  printf '%s %s\\n' \"$id\" \"$shard\" | '" << CONFAIL_CLI
        << "' \"$@\" || exit 1\n"
        << "done\n";
  }
  fs::permissions(path, fs::perms::owner_all);
  return path;
}

/// True when this process has no child, running or unreaped.  WNOWAIT:
/// the check reaps nothing, so a daemon running on another thread still
/// reaps its own workers.
bool noChildren() {
  siginfo_t info{};
  errno = 0;
  return ::waitid(P_ALL, 0, &info, WEXITED | WNOHANG | WNOWAIT) == -1 &&
         errno == ECHILD;
}

void expectNoChildren(const char* when) {
  EXPECT_TRUE(noChildren()) << "a worker process is left " << when;
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

TEST(JobSpec, ParserSurvivesSeededMutations) {
  // Seeded valid documents, each put through the JSONL decoder's mutation
  // catalogue.  A mutant is rejected or decoded without a crash; the spec
  // parser accepts only what the JSON parser accepts, and what it accepts
  // renders to a document it reads back unchanged.
  confail::SplitMix64 rng(0x10b5eed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  const auto& registry = confail::components::scenarios::registry();
  const auto& classes = inject::injectableClasses();
  static const Reduction kReductions[] = {Reduction::None, Reduction::Sleep,
                                          Reduction::Dpor};
  std::size_t accepted = 0;
  std::size_t mutants = 0;
  for (int d = 0; d < 200; ++d) {
    inject::JobSpec spec;
    spec.name = "job-" + std::to_string(d) + (d % 3 == 0 ? ".x_y" : "");
    // Each axis lists a drawn value once: a repeat is invalid.
    const auto addOnce = [](auto& axis, const auto& value) {
      if (std::find(axis.begin(), axis.end(), value) == axis.end()) {
        axis.push_back(value);
      }
    };
    for (std::size_t i = pick(3); i > 0; --i) {
      addOnce(spec.scenarios, registry[pick(registry.size())].name);
    }
    for (std::size_t i = pick(3); i > 0; --i) {
      addOnce(spec.classes, classes[pick(classes.size())]);
    }
    spec.reductions.clear();
    for (std::size_t i = 1 + pick(3); i > 0; --i) {
      addOnce(spec.reductions, kReductions[pick(3)]);
    }
    spec.maxRuns = 1 + rng.next() % 100000;
    spec.maxSteps = 1 + rng.next() % 100000;
    spec.maxBranchDepth = 1 + pick(20);
    spec.workers = 1 + pick(8);
    spec.negativeControls = pick(2) == 0;
    ASSERT_EQ(spec.validate(), "");
    const std::string doc = oneLine(spec.toJson());
    inject::JobSpec back;
    std::string error;
    ASSERT_TRUE(inject::JobSpec::parse(doc, back, error)) << error << doc;
    ASSERT_EQ(back.toJson(), spec.toJson());

    for (int k = 0; k < 8; ++k) {
      // One to three stacked mutations.
      std::string m = doc;
      for (std::size_t n = 1 + pick(3); n > 0; --n) {
        m = confail::json_mutation::mutate(m, rng);
      }
      ++mutants;
      SCOPED_TRACE("mutant of document " + std::to_string(d) + ": " + m);
      bool json = true;
      try {
        (void)confail::obs::parseJson(m);
      } catch (const confail::Error&) {
        json = false;
      }
      inject::JobSpec out;
      if (!inject::JobSpec::parse(m, out, error)) {
        EXPECT_FALSE(error.empty());
        continue;
      }
      ++accepted;
      EXPECT_TRUE(json) << "the spec parser accepted invalid JSON";
      inject::JobSpec again;
      ASSERT_TRUE(inject::JobSpec::parse(out.toJson(), again, error)) << error;
      EXPECT_EQ(again.toJson(), out.toJson());
      // A decoded spec validates, or expands to a usage error; never worse.
      if (out.validate().empty()) {
        EXPECT_NO_THROW((void)inject::expandShards(out));
      } else {
        EXPECT_THROW((void)inject::expandShards(out), confail::UsageError);
      }
    }
  }
  // The catalogue must leave some mutants decodable and reject others.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, mutants);

  // Counts outside uint64 are rejected, not converted.
  inject::JobSpec out;
  std::string error;
  EXPECT_FALSE(inject::JobSpec::parse(
      "{ \"schema\": \"confail.job.v1\", \"max_runs\": 1e300 }", out, error));
  EXPECT_FALSE(inject::JobSpec::parse(
      "{ \"schema\": \"confail.job.v1\", \"workers\": 18446744073709551616 }",
      out, error));
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

// A grid axis lists each value once: a repeat would run every cell on it
// twice.  The diagnostic names the repeated value.
TEST(JobSpec, ValidateRejectsARepeatedGridValue) {
  inject::JobSpec reductions = smallSpec();
  reductions.reductions = {Reduction::None, Reduction::Dpor,
                           Reduction::None};
  EXPECT_EQ(reductions.validate(), "reduction 'none' is listed twice");

  inject::JobSpec scenarios = smallSpec();
  scenarios.scenarios = {"fig2", "lock_order", "fig2"};
  EXPECT_EQ(scenarios.validate(), "scenario 'fig2' is listed twice");

  inject::JobSpec classes = smallSpec();
  classes.classes = {taxonomy::FailureClass::FF_T2,
                     taxonomy::FailureClass::FF_T2};
  EXPECT_EQ(classes.validate(), "class FF-T2 is listed twice");

  inject::JobSpec distinct = smallSpec();
  distinct.reductions = {Reduction::Sleep, Reduction::None};
  EXPECT_EQ(distinct.validate(), "");
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
  ASSERT_FALSE(r.eventsJsonl.empty());
  ASSERT_TRUE(store.writeShard(id, r));

  // Two files: the header, then the events verbatim in its sidecar.
  EXPECT_EQ(store.shardEventsPath(id, 0),
            serve::CampaignStore::sidecarPathFor(store.shardPath(id, 0)));
  EXPECT_EQ(serve::CampaignStore::sidecarPathFor("d/shard-0007.json"),
            "d/shard-0007.events.jsonl");
  EXPECT_EQ(serve::CampaignStore::sidecarPathFor("d/out"),
            "d/out.events.jsonl");
  EXPECT_EQ(slurp(store.shardPath(id, 0)),
            serve::CampaignStore::shardToJson(r) + "\n");
  EXPECT_EQ(slurp(store.shardEventsPath(id, 0)), r.eventsJsonl);

  inject::ShardResult back;
  ASSERT_TRUE(store.readShard(id, 0, back));
  EXPECT_EQ(back.spec.describe(), r.spec.describe());
  EXPECT_EQ(back.cell.runs, r.cell.runs);
  EXPECT_EQ(back.findings.size(), r.findings.size());
  EXPECT_EQ(back.eventsJsonl, r.eventsJsonl);
  EXPECT_EQ(serve::CampaignStore::shardToJson(back),
            serve::CampaignStore::shardToJson(r));

  // The header alone: the result without its events, and their size.
  inject::ShardResult header;
  std::uint64_t eventsBytes = 0;
  ASSERT_TRUE(store.readShardHeader(id, 0, header, eventsBytes));
  EXPECT_EQ(eventsBytes, r.eventsJsonl.size());
  EXPECT_TRUE(header.eventsJsonl.empty());
  header.eventsJsonl = r.eventsJsonl;
  EXPECT_EQ(serve::CampaignStore::shardToJson(header),
            serve::CampaignStore::shardToJson(r));

  // The same shard with its events streamed from the captured run, line by
  // line: the files must be exactly the serializer's header and the
  // exporter's JSONL.
  confail::events::Trace run;
  inject::ShardResult streamed = inject::runShard(spec, shards[0], {}, run);
  ASSERT_GT(run.size(), 0u);
  EXPECT_TRUE(streamed.eventsJsonl.empty());
  ASSERT_TRUE(store.writeShard(id, streamed, &run));
  streamed.eventsJsonl = confail::obs::toJsonl(run);
  EXPECT_EQ(streamed.eventsJsonl, r.eventsJsonl);
  EXPECT_EQ(slurp(store.shardPath(id, 0)),
            serve::CampaignStore::shardToJson(streamed) + "\n");
  EXPECT_EQ(slurp(store.shardEventsPath(id, 0)), streamed.eventsJsonl);
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
  // An FF-T3 shard: its captured run spins to the step limit, so its
  // sidecar is megabytes of events behind a small header.
  inject::JobSpec spec;
  spec.classes = {taxonomy::FailureClass::FF_T3};
  spec.maxRuns = 20;
  spec.negativeControls = false;
  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);
  ASSERT_FALSE(shards.empty());
  confail::events::Trace run;
  const inject::ShardResult r = inject::runShard(spec, shards[0], {}, run);
  ASSERT_EQ(r.spec.index, 0u);
  TempRoot root;
  const serve::CampaignStore store(root.str());
  const std::string id = "torn";
  fs::create_directories(fs::path(store.shardPath(id, 0)).parent_path());
  ASSERT_TRUE(store.writeShard(id, r, &run));
  const std::string headerPath = store.shardPath(id, 0);
  const std::string sidecarPath = store.shardEventsPath(id, 0);
  const std::string text = slurp(headerPath);
  const std::uint64_t eventsSize = fs::file_size(sidecarPath);
  const std::size_t close = text.rfind('}');
  const std::size_t bytesKey = text.find("\"events_bytes\": ");
  ASSERT_NE(close, std::string::npos);
  ASSERT_NE(bytesKey, std::string::npos);
  ASSERT_GT(eventsSize, 1000000u);

  inject::ShardResult out;
  std::uint64_t bytes = 0;
  std::string error;
  ASSERT_TRUE(serve::CampaignStore::shardFromJson(text, out, bytes, error))
      << error;
  EXPECT_EQ(bytes, eventsSize);
  ASSERT_TRUE(store.readShardHeader(id, 0, out, bytes));

  // The landing rule on the files: not landed, and not loadable either.
  const auto expectNotLanded = [&] {
    EXPECT_FALSE(store.readShardHeader(id, 0, out, bytes));
    EXPECT_FALSE(store.readShard(id, 0, out));
    EXPECT_FALSE(store.completedShards(id, 1)[0]);
  };
  const auto putHeader = [&](const std::string& doc) {
    ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(headerPath, doc));
  };

  confail::Xoshiro256 rng(2024);
  // Truncated headers: every cut before the closing brace is rejected.
  for (int i = 0; i < 40; ++i) {
    const std::size_t cut = static_cast<std::size_t>(rng.below(close + 1));
    SCOPED_TRACE("header truncated at " + std::to_string(cut));
    EXPECT_FALSE(serve::CampaignStore::shardFromJson(text.substr(0, cut), out,
                                                     bytes, error));
    putHeader(text.substr(0, cut));
    expectNotLanded();
  }
  // A header naming any other sidecar size is rejected: off by a little or
  // a lot, or no count at all.
  const std::size_t digits =
      bytesKey + std::string("\"events_bytes\": ").size();
  const std::size_t digitsEnd = text.find_first_not_of("0123456789", digits);
  static const char* const kOddCounts[] = {
      "-1", "0", "1e300", "0.5", "18446744073709551616", "\"12\"", "null"};
  for (int i = 0; i < 40; ++i) {
    std::string count;
    if (i < 7) {
      count = kOddCounts[i];
    } else {
      const std::uint64_t delta = 1 + rng.below(i % 2 == 0 ? 64 : eventsSize);
      count = std::to_string(rng.chance(0.5) ? eventsSize + delta
                                             : eventsSize - delta);
    }
    SCOPED_TRACE("events_bytes " + count);
    putHeader(text.substr(0, digits) + count + text.substr(digitsEnd));
    expectNotLanded();
  }
  putHeader(text.substr(0, bytesKey) + "\"x\": 0" + text.substr(digitsEnd));
  expectNotLanded();
  putHeader(text);
  ASSERT_TRUE(store.readShardHeader(id, 0, out, bytes));

  // A short sidecar: every truncation is rejected (shortest last, so one
  // file is cut down step by step).
  std::vector<std::uint64_t> cuts;
  for (int i = 0; i < 40; ++i) cuts.push_back(rng.below(eventsSize));
  std::sort(cuts.rbegin(), cuts.rend());
  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE("sidecar truncated to " + std::to_string(cut));
    fs::resize_file(sidecarPath, cut);
    expectNotLanded();
  }
  fs::remove(sidecarPath);
  expectNotLanded();
  ASSERT_TRUE(store.writeShard(id, r, &run));
  ASSERT_EQ(slurp(headerPath), text);
  // A long sidecar: every extension is rejected.
  for (int i = 0; i < 40; ++i) {
    const std::size_t extra = 1 + static_cast<std::size_t>(rng.below(4096));
    SCOPED_TRACE("sidecar extended by " + std::to_string(extra));
    ASSERT_TRUE(serve::CampaignStore::appendFile(
        sidecarPath, std::string(extra, i % 2 == 0 ? '\n' : '{')));
    expectNotLanded();
    fs::resize_file(sidecarPath, eventsSize);
  }
  ASSERT_TRUE(store.readShardHeader(id, 0, out, bytes));

  static const char kBytes[] = {'"', '\\', '{', '}', '[', ']', ',', ':',
                                '0', 'e', '-', ' ', '\0', '\xff', 'n'};
  for (int i = 0; i < 80; ++i) {
    std::string m = text;
    const std::size_t at = static_cast<std::size_t>(rng.below(m.size()));
    if (i % 2 == 0) {
      m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
    } else {
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
               kBytes[rng.below(sizeof kBytes)]);
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + " at " + std::to_string(at));
    // Rejected or decoded, without a crash or a sanitizer report; a header
    // that lands names its sidecar's size.
    (void)serve::CampaignStore::shardFromJson(m, out, bytes, error);
    putHeader(m);
    if (store.readShardHeader(id, 0, out, bytes)) {
      EXPECT_EQ(bytes, eventsSize);
    }
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
  const auto histogram = [&snap](const std::string& name) {
    return std::find_if(snap.histograms.begin(), snap.histograms.end(),
                        [&name](const auto& h) { return h.name == name; });
  };
  const auto land = histogram("serve.land_us");
  ASSERT_NE(land, snap.histograms.end());
  EXPECT_EQ(land->count, st.shardsTotal);
  // Every shard is reaped on a wake, and each such wake refills once.
  const auto refill = histogram("serve.refill_us");
  ASSERT_NE(refill, snap.histograms.end());
  EXPECT_GT(refill->count, 0u);
  EXPECT_LE(refill->count, st.shardsTotal);
}

// `confail inject --campaign` (runCampaign in one process) and the daemon
// compute one campaign: a spec's merged matrix.json is the in-process
// campaign's document, up to where and how fast each cell ran.
TEST(Server, MergedMatrixEqualsTheInProcessCampaign) {
  TempRoot root;
  const inject::JobSpec spec = smallSpec();
  const std::string id = serve::submitJob(root.str(), spec);
  ASSERT_FALSE(id.empty());
  ASSERT_EQ(serveToIdle(root.str(), /*subprocess=*/false), 0);
  serve::JobResults results;
  ASSERT_TRUE(serve::jobResults(root.str(), id, results));
  ASSERT_TRUE(results.complete);

  // Blank each cell's provenance values and drop the file's newline.
  const auto mask = [](std::string doc) {
    for (const std::string key : {"\"wall_ms\": ", "\"host_concurrency\": "}) {
      for (std::size_t at = doc.find(key); at != std::string::npos;
           at = doc.find(key, at)) {
        at += key.size();
        doc.replace(at, doc.find_first_of(",\n}", at) - at, "_");
      }
    }
    while (!doc.empty() && doc.back() == '\n') doc.pop_back();
    return doc;
  };
  const std::string daemon = mask(results.matrixJson);
  EXPECT_NE(daemon.find("\"runs\""), std::string::npos);
  EXPECT_EQ(daemon, mask(inject::runCampaign(spec).toJson()));
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
  if (kUnderTsan) GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
  TempRoot root;
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};  // enough shards to die mid-job
  const std::string id = serve::submitJob(root.str(), spec);
  ASSERT_FALSE(id.empty());
  const std::size_t total = inject::expandShards(spec).size();
  ASSERT_GT(total, 2u);

  const serve::CampaignStore store(root.str());

  // The first daemon's worker: it forwards only the first request it is
  // handed to a real one-request worker, whose reply lands that shard, and
  // then blocks holding its channel, leaving every later request unread
  // until the kill below.  The daemon is therefore always mid-job, with
  // exactly one shard landed, when it dies, however fast shards run.
  TempRoot scripts;
  const std::string wrapper = (scripts.path / "worker.sh").string();
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\n"
        << "IFS= read -r request\n"
        << "printf '%s\\n' \"$request\" | '" << CONFAIL_CLI << "' \"$@\"\n"
        << "exec sleep 600\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all);

  // First daemon: forked child, serial subprocess pool, in a process group
  // of its own so that one SIGKILL takes the daemon and its blocked worker
  // down together — no orphan worker racing the restarted daemon.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::setpgid(0, 0);
    serve::ServerOptions opts;
    opts.root = root.str();
    opts.poolSize = 1;
    opts.subprocess = true;
    opts.workerBinary = wrapper;
    opts.exitWhenIdle = true;
    serve::Server server(std::move(opts));
    ::_exit(server.run());
  }
  ::setpgid(child, child);  // also here: no race with the child's own call

  // Kill the daemon once its first shard has landed.
  std::size_t landed = 0;
  for (int spin = 0; spin < 20000; ++spin) {
    const std::vector<bool> done = store.completedShards(id, total);
    landed = 0;
    for (const bool d : done) landed += d ? 1 : 0;
    if (landed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(-child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_GE(landed, 1u);

  const std::vector<bool> doneBeforeResume = store.completedShards(id, total);
  std::size_t landedAtKill = 0;
  for (const bool d : doneBeforeResume) landedAtKill += d ? 1 : 0;
  ASSERT_LT(landedAtKill, total) << "daemon finished before the kill";
  EXPECT_EQ(landedAtKill, 1u) << "a blocked worker landed its shard";
  struct Landed {
    std::string path;  ///< a header or its sidecar
    ino_t inode;
    std::string bytes;
  };
  std::vector<Landed> landedFiles;
  for (std::size_t i = 0; i < total; ++i) {
    if (!doneBeforeResume[i]) continue;
    for (const std::string& path :
         {store.shardPath(id, i), store.shardEventsPath(id, i)}) {
      landedFiles.push_back({path, inodeOf(path), slurp(path)});
    }
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

  // Zero re-runs: a re-run shard would rename fresh files over its old
  // ones, so every header and sidecar that had landed before the kill
  // keeps its inode and its bytes.
  ASSERT_FALSE(landedFiles.empty());
  for (const Landed& l : landedFiles) {
    EXPECT_EQ(inodeOf(l.path), l.inode) << l.path << " re-ran";
    EXPECT_EQ(slurp(l.path), l.bytes) << l.path << " re-ran";
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

// A worker killed mid-shard costs that shard one attempt: the daemon sees
// its channel end, reaps it, and retries the shard on a fresh worker.  A
// shard killed on both attempts fails alone; the job's other shards land.
TEST(Server, WorkerKilledMidShardIsReplacedAndRetried) {
  if (kUnderTsan) GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  const std::size_t total = inject::expandShards(spec).size();
  const std::size_t victim = 1;
  ASSERT_GT(total, victim + 1);
  TempRoot cleanRoot;
  const std::string id = serve::submitJob(cleanRoot.str(), spec);
  ASSERT_EQ(serveToIdle(cleanRoot.str(), true), 0);
  const serve::CampaignStore cleanStore(cleanRoot.str());

  for (const bool once : {true, false}) {
    SCOPED_TRACE(once ? "killed once" : "killed on both attempts");
    TempRoot scripts;
    TempRoot root;
    ASSERT_EQ(serve::submitJob(root.str(), spec), id);
    confail::obs::Registry reg;
    serve::ServerOptions opts;
    opts.root = root.str();
    opts.poolSize = once ? 1 : 2;
    opts.workerBinary = killingWorker(scripts.path, victim, once);
    opts.exitWhenIdle = true;
    opts.metrics = &reg;
    const int rc = serve::Server(std::move(opts)).run();
    expectNoChildren("after the drain");

    const serve::CampaignStore store(root.str());
    serve::JobState st;
    ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
    const std::vector<bool> landed = store.completedShards(id, total);
    const confail::obs::Snapshot snap = reg.snapshot();
    if (once) {
      EXPECT_EQ(rc, 0);
      EXPECT_EQ(st.status, "completed");
      EXPECT_EQ(st.shardsDone, total);
      EXPECT_EQ(st.shardsFailed, 0u);
      // One worker, killed once: its replacement is the only other start.
      EXPECT_EQ(snap.counter("serve.workers_started"), 2u);
      EXPECT_EQ(slurp(store.findingsPath(id)),
                slurp(cleanStore.findingsPath(id)));
      EXPECT_EQ(sortedLines(slurp(store.eventsPath(id))),
                sortedLines(slurp(cleanStore.eventsPath(id))));
    } else {
      EXPECT_EQ(rc, 1);
      EXPECT_EQ(st.status, "failed");
      EXPECT_EQ(st.shardsFailed, 1u);
      EXPECT_EQ(st.shardsDone, total - 1);
      EXPECT_EQ(snap.counter("serve.shards_failed"), 1u);
      for (std::size_t i = 0; i < total; ++i) {
        EXPECT_EQ(landed[i], i != victim) << "shard " << i;
      }
    }
  }
}

// A worker that cannot be started (fork refused) is not an attempt: the
// shard keeps its retry for a worker that really runs it.
TEST(Server, FailedWorkerStartDoesNotUseUpARetry) {
  if (kUnderTsan) GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
  TempRoot scripts;
  TempRoot root;
  const std::string id = serve::submitJob(root.str(), smallSpec());
  ASSERT_FALSE(id.empty());
  confail::obs::Registry reg;
  int forks = 0;
  serve::ServerOptions opts;
  opts.root = root.str();
  opts.poolSize = 1;
  // The first fork fails, then shard 0's first request is killed: only
  // the retry, on the next worker, can land it.
  opts.forkProcess = [&forks]() -> pid_t {
    if (forks++ == 0) {
      errno = EAGAIN;
      return -1;
    }
    return ::fork();
  };
  opts.workerBinary = killingWorker(scripts.path, 0, /*once=*/true);
  opts.exitWhenIdle = true;
  opts.metrics = &reg;
  EXPECT_EQ(serve::Server(std::move(opts)).run(), 0);
  EXPECT_EQ(forks, 3);
  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_EQ(st.shardsFailed, 0u);
  EXPECT_EQ(st.shardsDone, st.shardsTotal);
  EXPECT_EQ(reg.snapshot().counter("serve.workers_started"), 2u);
}

// The subprocess pool lives only while jobs are in flight, and every way
// the daemon stops reaps it before run() returns: idle exit, a drain
// request, maxJobs.  The destructor of a Server whose run() ended early by
// an exception, with a worker mid-shard, reaps it too.
TEST(Server, LeavesNoWorkerProcessBehind) {
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  const auto options = [](const std::string& root,
                          confail::obs::Registry& reg) {
    serve::ServerOptions opts;
    opts.root = root;
    opts.poolSize = 2;
    opts.workerBinary = CONFAIL_CLI;
    opts.metrics = &reg;
    return opts;
  };

  {
    TempRoot root;
    ASSERT_FALSE(serve::submitJob(root.str(), spec).empty());
    confail::obs::Registry reg;
    serve::ServerOptions opts = options(root.str(), reg);
    opts.exitWhenIdle = true;
    serve::Server server(std::move(opts));
    EXPECT_EQ(server.run(), 0);
    expectNoChildren("after an idle exit");
    EXPECT_EQ(reg.snapshot().counter("serve.workers_started"), 2u);
  }
  {
    // A daemon serving until drained: once its only job completes it holds
    // no worker while it idles, and the drain ends it.
    TempRoot root;
    const std::string id = serve::submitJob(root.str(), spec);
    ASSERT_FALSE(id.empty());
    confail::obs::Registry reg;
    serve::Server server(options(root.str(), reg));
    int rc = -1;
    std::thread daemon([&] {
      rc = server.run();
      expectNoChildren("after a drain");
    });
    serve::JobState st;
    for (int spin = 0; spin < 5000; ++spin) {
      if (serve::jobStatus(root.str(), id, st) && st.status == "completed" &&
          noChildren()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(st.status, "completed");
    expectNoChildren("while the daemon idles");
    ASSERT_TRUE(serve::requestDrain(root.str()));
    daemon.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(reg.snapshot().counter("serve.workers_started"), 2u);
  }
  {
    TempRoot root;
    ASSERT_FALSE(serve::submitJob(root.str(), spec).empty());
    confail::obs::Registry reg;
    serve::ServerOptions opts = options(root.str(), reg);
    opts.maxJobs = 1;
    serve::Server server(std::move(opts));
    EXPECT_EQ(server.run(), 0);
    expectNoChildren("after maxJobs");
  }
  {
    // The second worker's start throws out of run(): the first is busy
    // with a shard when ~Server stops the pool.
    TempRoot root;
    ASSERT_FALSE(serve::submitJob(root.str(), spec).empty());
    confail::obs::Registry reg;
    serve::ServerOptions opts = options(root.str(), reg);
    opts.exitWhenIdle = true;
    int forks = 0;
    opts.forkProcess = [&forks]() -> pid_t {
      if (forks++ == 1) throw std::runtime_error("no second worker");
      return ::fork();
    };
    {
      serve::Server server(std::move(opts));
      EXPECT_THROW(server.run(), std::runtime_error);
      EXPECT_EQ(reg.snapshot().counter("serve.workers_started"), 1u);
    }
    EXPECT_EQ(forks, 2);
    expectNoChildren("after ~Server on an early return");
  }
}

TEST(Server, SidecarWithoutHeaderRerunsTheShard) {
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  for (const bool subprocess : {false, true}) {
    expectTornShardReruns(spec, subprocess, Torn::SidecarOnly);
  }
}

TEST(Server, HeaderWithoutItsSidecarRerunsTheShard) {
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  for (const bool subprocess : {false, true}) {
    for (const Torn torn : {Torn::NoSidecar, Torn::ShortSidecar,
                            Torn::LongSidecar, Torn::V1}) {
      expectTornShardReruns(spec, subprocess, torn);
    }
  }
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

// A queued spec that repeats a grid value (written past `confail submit`,
// which refuses it) is dropped at adoption as a failed job, never run.
TEST(Server, QueuedSpecWithARepeatedReductionIsDropped) {
  TempRoot root;
  serve::CampaignStore store(root.str());
  ASSERT_TRUE(store.init());
  inject::JobSpec spec = smallSpec();
  spec.reductions = {Reduction::None, Reduction::None};
  const std::string id = store.submit(spec);
  ASSERT_FALSE(id.empty());

  inject::JobSpec adopted;
  std::string error;
  EXPECT_FALSE(store.adoptJob(id, adopted, error));
  EXPECT_EQ(error, "reduction 'none' is listed twice");

  serve::ServerOptions opts;
  opts.root = root.str();
  opts.subprocess = false;
  opts.exitWhenIdle = true;
  serve::Server server(std::move(opts));
  EXPECT_EQ(server.run(), 1);  // the dropped job counts as failed
  EXPECT_TRUE(store.scanQueue().empty());
  serve::JobState st;
  ASSERT_TRUE(store.readState(id, st));
  EXPECT_EQ(st.status, "failed");
  EXPECT_EQ(st.shardsDone, 0u);
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
