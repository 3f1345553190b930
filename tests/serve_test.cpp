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
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/inotify.h>
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
#include "confail/serve/worker.hpp"
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

/// The lines of `text`, each without its newline (a torn last one too).
std::vector<std::string> linesOf(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The lines of JSONL text, sorted: a feed's content up to landing order.
std::vector<std::string> sortedLines(const std::string& text) {
  std::vector<std::string> lines = linesOf(text);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Drain every job queued or adopted under `root` with a two-worker pool.
int serveToIdle(const std::string& root, bool subprocess,
                confail::obs::Registry* metrics = nullptr) {
  serve::ServerOptions opts;
  opts.root = root;
  opts.poolSize = 2;
  opts.subprocess = subprocess;
  opts.workerBinary = CONFAIL_CLI;
  opts.exitWhenIdle = true;
  opts.metrics = metrics;
  return serve::Server(std::move(opts)).run();
}

/// An anonymous scratch buffer, closed on destruction.
struct EventsBuffer {
  int fd = serve::openEventsBuffer();
  EventsBuffer() { EXPECT_GE(fd, 0); }
  ~EventsBuffer() {
    if (fd >= 0) ::close(fd);
  }
  EventsBuffer(const EventsBuffer&) = delete;
  EventsBuffer& operator=(const EventsBuffer&) = delete;
};

/// Run shard `index` of `spec` and land it in job `id` as the daemon does:
/// its events into a scratch buffer, then landShard at `end`.
void landShard(const serve::CampaignStore& store, const std::string& id,
               const inject::JobSpec& spec, std::size_t index,
               serve::CampaignStore::JournalEnd& end) {
  confail::events::Trace run;
  const inject::ShardResult r =
      inject::runShard(spec, inject::expandShards(spec).at(index), {}, run);
  EventsBuffer events;
  std::uint64_t bytes = 0;
  ASSERT_TRUE(serve::CampaignStore::writeEvents(events.fd, run, bytes));
  ASSERT_TRUE(store.landShard(id, serve::CampaignStore::shardToJson(r, bytes),
                              events.fd, bytes, end));
}

/// The lines of job `id`'s journal.
std::vector<std::string> journalText(const serve::CampaignStore& store,
                                     const std::string& id) {
  return linesOf(slurp(store.journalPath(id)));
}

/// Job `id` in `store` ended as an untorn run of it in `clean` does: one
/// journal line per shard, and a feed that is exactly the shards' segments,
/// end to end, each holding that shard's events once.
void expectExactFeed(const serve::CampaignStore& store,
                     const serve::CampaignStore& clean, const std::string& id,
                     std::size_t total) {
  const serve::CampaignStore::Journal journal = store.readJournal(id, total);
  ASSERT_EQ(journal.landings.size(), total);
  EXPECT_EQ(journalText(store, id).size(), total);
  EXPECT_EQ(journal.end.journal, fs::file_size(store.journalPath(id)));
  EXPECT_EQ(journal.end.feed, fs::file_size(store.eventsPath(id)));
  const serve::CampaignStore::Journal want = clean.readJournal(id, total);
  ASSERT_EQ(want.landings.size(), total);
  std::vector<std::string> got(total);
  std::vector<std::string> expected(total);
  for (std::size_t k = 0; k < total; ++k) {
    const auto& l = journal.landings[k];
    ASSERT_TRUE(store.readSegment(id, l.segment, got[l.result.spec.index]));
    const auto& c = want.landings[k];
    ASSERT_TRUE(
        clean.readSegment(id, c.segment, expected[c.result.spec.index]));
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(sortedLines(slurp(store.eventsPath(id))),
            sortedLines(slurp(clean.eventsPath(id))));
  EXPECT_EQ(slurp(store.findingsPath(id)), slurp(clean.findingsPath(id)));
}

/// landed[i] == true iff shard i's line is in the journal's valid prefix.
std::vector<bool> landedShards(const serve::CampaignStore& store,
                               const std::string& id, std::size_t total) {
  std::vector<bool> landed(total, false);
  for (const auto& l : store.readJournal(id, total).landings) {
    landed[l.result.spec.index] = true;
  }
  return landed;
}

/// How a journal can be left short of its feed, or its feed short of it.
enum class Torn { FeedPastJournal, TornLastLine, SegmentPastFeed };

const char* tornName(Torn t) {
  switch (t) {
    case Torn::FeedPastJournal: return "feed bytes past the last segment";
    case Torn::TornLastLine: return "torn last journal line";
    case Torn::SegmentPastFeed: return "segment past the feed's end";
  }
  return "?";
}

/// Land shard 0 of `spec` in a fresh spool with the job adopted, leave
/// shard 1 half landed as `torn` says, serve it, and require shard 1 to run
/// again, shard 0 not to, and the job to end as an untorn run of it does.
void expectTornJournalReruns(const inject::JobSpec& spec, bool subprocess,
                             Torn torn) {
  SCOPED_TRACE(std::string(tornName(torn)) +
               (subprocess ? ", subprocess pool" : ", in-process pool"));
  const std::size_t total = inject::expandShards(spec).size();
  ASSERT_GT(total, 2u);
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
  serve::CampaignStore::JournalEnd end;
  landShard(store, id, spec, 0, end);
  const serve::CampaignStore::JournalEnd first = end;
  const std::string firstLine = journalText(store, id).at(0);
  switch (torn) {
    case Torn::FeedPastJournal: {
      // A daemon killed between the copy and the journal line.
      inject::ShardResult next;
      ASSERT_TRUE(cleanStore.readShard(id, 1, next));
      ASSERT_TRUE(serve::CampaignStore::appendFile(store.eventsPath(id),
                                                   next.eventsJsonl));
      break;
    }
    case Torn::TornLastLine:
      landShard(store, id, spec, 1, end);
      fs::resize_file(store.journalPath(id),
                      first.journal + (end.journal - first.journal) / 2);
      break;
    case Torn::SegmentPastFeed:
      landShard(store, id, spec, 1, end);
      fs::resize_file(store.eventsPath(id), end.feed - 1);
      break;
  }
  ASSERT_EQ(store.readJournal(id, total).landings.size(), 1u);
  inject::ShardResult unused;
  ASSERT_FALSE(store.readShard(id, 1, unused));

  confail::obs::Registry reg;
  ASSERT_EQ(serveToIdle(root.str(), subprocess, &reg), 0);
  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_EQ(st.shardsDone, total);
  EXPECT_EQ(reg.snapshot().counter("serve.shards_completed"), total - 1);
  EXPECT_EQ(journalText(store, id).at(0), firstLine);
  expectExactFeed(store, cleanStore, id, total);
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
/// that one it SIGKILLs itself before replying (`midReply`: after sending
/// the first half of the real worker's reply), every time or (`once`) only
/// the first time.  Returns its path.
std::string killingWorker(const fs::path& dir, std::size_t victim, bool once,
                          bool midReply = false) {
  const std::string path = (dir / "killing-worker.sh").string();
  const std::string marker = (dir / "killed").string();
  const std::string worker = "printf '%s %s\\n' \"$id\" \"$shard\" | '" +
                             std::string(CONFAIL_CLI) + "' \"$@\"";
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n"
        << "while IFS=' ' read -r id shard; do\n"
        << "  if [ \"$shard\" = " << victim << " ]"
        << (once ? " && mkdir '" + marker + "' 2>/dev/null" : "")
        << "; then\n";
    if (midReply) {
      out << "    reply=$(" << worker << ")\n"
          << "    printf '%s' \"$reply\" | head -c $((${#reply} / 2))\n";
    }
    out << "    kill -KILL $$\n"
        << "  fi\n"
        << "  " << worker << " || exit 1\n"
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

  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"lock_order", "fig2"};
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
  ASSERT_GT(shards.size(), 1u);
  inject::RunShardOptions ro;
  ro.captureEvents = true;
  const inject::ShardResult r = inject::runShard(spec, shards[0], ro);
  ASSERT_FALSE(r.eventsJsonl.empty());

  // The same shard with its events streamed from the captured run into a
  // scratch buffer, line by line: the buffer holds exactly the exporter's
  // JSONL, and an earlier, longer content is gone.
  confail::events::Trace run;
  const inject::ShardResult streamed =
      inject::runShard(spec, shards[0], {}, run);
  ASSERT_GT(run.size(), 0u);
  EXPECT_TRUE(streamed.eventsJsonl.empty());
  EventsBuffer events;
  ASSERT_EQ(::write(events.fd, r.eventsJsonl.data(), r.eventsJsonl.size()),
            static_cast<ssize_t>(r.eventsJsonl.size()));
  ASSERT_EQ(::write(events.fd, "tail", 4), 4);
  std::uint64_t bytes = 0;
  ASSERT_TRUE(serve::CampaignStore::writeEvents(events.fd, run, bytes));
  EXPECT_EQ(bytes, r.eventsJsonl.size());
  EXPECT_EQ(confail::obs::toJsonl(run), r.eventsJsonl);
  const std::string header =
      serve::CampaignStore::shardToJson(streamed, bytes);
  EXPECT_EQ(header.find('\n'), std::string::npos);

  // Landed: the events are the feed's first segment, and the journal's
  // line is the header with that segment's offset.
  serve::CampaignStore::JournalEnd end;
  ASSERT_TRUE(store.landShard(id, header, events.fd, bytes, end));
  EXPECT_EQ(slurp(store.eventsPath(id)), r.eventsJsonl);
  const std::string line = header.substr(0, header.size() - 2) +
                           ", \"events_offset\": 0 }";
  EXPECT_EQ(slurp(store.journalPath(id)), line + "\n");
  EXPECT_EQ(end.feed, bytes);
  EXPECT_EQ(end.journal, line.size() + 1);

  inject::ShardResult back;
  ASSERT_TRUE(store.readShard(id, 0, back));
  EXPECT_EQ(back.spec.describe(), r.spec.describe());
  EXPECT_EQ(back.cell.runs, r.cell.runs);
  EXPECT_EQ(back.findings.size(), r.findings.size());
  EXPECT_EQ(back.eventsJsonl, r.eventsJsonl);
  EXPECT_EQ(serve::CampaignStore::shardToJson(back, back.eventsJsonl.size()),
            header);

  // The header alone: the result without its events, and their size.
  inject::ShardResult parsed;
  std::uint64_t eventsBytes = 0;
  ASSERT_TRUE(
      serve::CampaignStore::shardFromJson(header, parsed, eventsBytes, error))
      << error;
  EXPECT_EQ(eventsBytes, r.eventsJsonl.size());
  EXPECT_TRUE(parsed.eventsJsonl.empty());
  EXPECT_EQ(serve::CampaignStore::shardToJson(parsed, eventsBytes), header);
  // A journal line is not a header, nor a header a journal line.
  EXPECT_FALSE(
      serve::CampaignStore::shardFromJson(line, parsed, eventsBytes, error));
  serve::CampaignStore::Landing landing;
  EXPECT_FALSE(serve::CampaignStore::landingFromJson(header, landing, error));
  ASSERT_TRUE(serve::CampaignStore::landingFromJson(line, landing, error))
      << error;
  EXPECT_EQ(landing.segment.offset, 0u);
  EXPECT_EQ(landing.segment.bytes, bytes);

  // The next shard's segment follows; the scratch buffer is reused.
  confail::events::Trace run1;
  const inject::ShardResult r1 = inject::runShard(spec, shards[1], {}, run1);
  std::uint64_t bytes1 = 0;
  ASSERT_TRUE(serve::CampaignStore::writeEvents(events.fd, run1, bytes1));
  ASSERT_TRUE(store.landShard(
      id, serve::CampaignStore::shardToJson(r1, bytes1), events.fd, bytes1,
      end));
  EXPECT_EQ(slurp(store.eventsPath(id)),
            r.eventsJsonl + confail::obs::toJsonl(run1));
  const serve::CampaignStore::Journal journal =
      store.readJournal(id, shards.size());
  ASSERT_EQ(journal.landings.size(), 2u);
  EXPECT_EQ(journal.landings[1].segment.offset, bytes);
  EXPECT_EQ(journal.landings[1].segment.bytes, bytes1);
  EXPECT_EQ(journal.end.feed, end.feed);
  EXPECT_EQ(journal.end.journal, end.journal);
  // A buffer whose size is not the header's count does not land, even
  // when the count ends on a line of it.
  const serve::CampaignStore::JournalEnd before = end;
  const std::uint64_t firstLine =
      confail::obs::toJsonl(run1).find('\n') + 1;
  ASSERT_LT(firstLine, bytes1);
  for (const std::uint64_t count : {bytes1 + 1, firstLine}) {
    EXPECT_FALSE(store.landShard(
        id, serve::CampaignStore::shardToJson(r1, count), events.fd, count,
        end));
  }
  EXPECT_EQ(end.feed, before.feed);
  EXPECT_EQ(end.journal, before.journal);
  EXPECT_EQ(fs::file_size(store.eventsPath(id)), before.feed);

  // The one-file form: the header line, then the events.
  const std::string file = (root.path / "one.json").string();
  const std::string header1 = serve::CampaignStore::shardToJson(r1, bytes1);
  ASSERT_TRUE(serve::CampaignStore::writeShardFile(file, header1, events.fd));
  EXPECT_EQ(slurp(file), header1 + "\n" + confail::obs::toJsonl(run1));
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
  fs::create_directories(store.jobDir("names"));
  inject::ShardResult r;
  r.spec.control = true;
  r.spec.scenario = "fig2";
  EventsBuffer events;
  std::uint64_t bytes = 0;
  ASSERT_TRUE(serve::CampaignStore::writeEvents(events.fd, run, bytes));
  serve::CampaignStore::JournalEnd end;
  ASSERT_TRUE(store.landShard("names",
                              serve::CampaignStore::shardToJson(r, bytes),
                              events.fd, bytes, end));
  inject::ShardResult back;
  ASSERT_TRUE(store.readShard("names", 0, back));
  EXPECT_EQ(back.eventsJsonl, jsonl);
  expectNames(back.eventsJsonl);
}

TEST(CampaignStore, ShardParserSurvivesSeededMutationsOfATornShard) {
  // An FF-T3 shard: its captured run spins to the step limit, so its
  // segment is megabytes of events behind one journal line.
  inject::JobSpec spec;
  spec.classes = {taxonomy::FailureClass::FF_T3};
  spec.maxRuns = 20;
  spec.negativeControls = false;
  const std::vector<inject::ShardSpec> shards = inject::expandShards(spec);
  ASSERT_FALSE(shards.empty());
  TempRoot root;
  const serve::CampaignStore store(root.str());
  const std::string id = "torn";
  fs::create_directories(store.jobDir(id));
  // With the spec adopted, status() reads the journal too.
  ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(
      (fs::path(store.jobDir(id)) / "job.json").string(),
      spec.toJson() + "\n"));
  serve::CampaignStore::JournalEnd end;
  landShard(store, id, spec, 0, end);
  const std::string line = journalText(store, id).at(0);
  const std::string feed = slurp(store.eventsPath(id));
  const std::uint64_t eventsSize = feed.size();
  ASSERT_GT(eventsSize, 1000000u);
  ASSERT_EQ(end.feed, eventsSize);

  std::string error;
  serve::CampaignStore::Landing parsed;
  ASSERT_TRUE(serve::CampaignStore::landingFromJson(line, parsed, error))
      << error;
  EXPECT_EQ(parsed.segment.offset, 0u);
  EXPECT_EQ(parsed.segment.bytes, eventsSize);

  const auto putJournal = [&](const std::string& text) {
    ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(store.journalPath(id),
                                                      text));
  };
  const auto landings = [&] { return store.readJournal(id, 1).landings; };
  // Whatever the journal holds, status() counts what readJournal settles.
  const std::size_t total = shards.size();
  const auto expectStatusMatchesJournal = [&] {
    const serve::CampaignStore::Journal j = store.readJournal(id, total);
    serve::JobState st;
    ASSERT_TRUE(store.status(id, st));
    EXPECT_EQ(st.shardsTotal, total);
    EXPECT_EQ(st.shardsDone, j.landings.size());
    EXPECT_EQ(st.shardsFailed, j.failed.size());
    std::set<std::size_t> settled(j.failed.begin(), j.failed.end());
    for (const auto& l : j.landings) settled.insert(l.result.spec.index);
    EXPECT_EQ(settled.size(), j.landings.size() + j.failed.size());
    EXPECT_TRUE(settled.empty() || *settled.rbegin() < total);
    EXPECT_EQ(st.status, settled.size() == total && !j.failed.empty()
                             ? "failed"
                             : "running");
  };
  const auto expectNotLanded = [&] {
    EXPECT_TRUE(landings().empty());
    inject::ShardResult out;
    EXPECT_FALSE(store.readShard(id, 0, out));
  };
  putJournal(line + "\n");
  ASSERT_EQ(landings().size(), 1u);

  confail::Xoshiro256 rng(2024);
  // Truncated lines: every cut is rejected, torn or ended by a newline.
  for (int i = 0; i < 40; ++i) {
    const std::size_t cut = static_cast<std::size_t>(rng.below(line.size()));
    SCOPED_TRACE("line truncated at " + std::to_string(cut));
    EXPECT_FALSE(serve::CampaignStore::landingFromJson(line.substr(0, cut),
                                                       parsed, error));
    putJournal(line.substr(0, cut));
    expectNotLanded();
    putJournal(line.substr(0, cut) + "\n");
    expectNotLanded();
  }
  // The line with no newline is torn as well.
  putJournal(line);
  expectNotLanded();

  // A segment that does not fit the feed is rejected: a size or offset
  // that is not a count, a segment past the feed's end, a first segment
  // that does not start at the feed's start, a field missing.
  const auto withField = [&line](const std::string& key,
                                 const std::string& value) {
    const std::string k = "\"" + key + "\": ";
    const std::size_t at = line.find(k);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + k.size();
    const std::size_t to = line.find_first_of(",}", from);
    return line.substr(0, from) + value + line.substr(to);
  };
  static const char* const kOddCounts[] = {
      "-1", "1e300", "0.5", "18446744073709551616", "\"12\"", "null", "[]"};
  for (const char* odd : kOddCounts) {
    for (const char* key : {"events_bytes", "events_offset"}) {
      SCOPED_TRACE(std::string(key) + " " + odd);
      putJournal(withField(key, odd) + " \n");
      expectNotLanded();
    }
  }
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t delta = 1 + rng.below(i % 2 == 0 ? 64 : eventsSize);
    SCOPED_TRACE("delta " + std::to_string(delta));
    putJournal(withField("events_bytes", std::to_string(eventsSize + delta)) +
               "\n");
    expectNotLanded();
    putJournal(withField("events_offset", std::to_string(delta)) + "\n");
    expectNotLanded();
    // A shorter segment is a segment: it lands when it ends a line, and
    // then the shard's events are exactly its bytes.
    const std::uint64_t shorter = eventsSize - delta;
    putJournal(withField("events_bytes", std::to_string(shorter)) + "\n");
    const bool endsLine = shorter == 0 || feed[shorter - 1] == '\n';
    EXPECT_EQ(landings().size(), endsLine ? 1u : 0u);
    inject::ShardResult out;
    if (store.readShard(id, 0, out)) {
      EXPECT_EQ(out.eventsJsonl, feed.substr(0, shorter));
    }
  }
  putJournal(line.substr(0, line.find(", \"events_offset\"")) + " }\n");
  expectNotLanded();
  // A segment inside the feed that does not start where the previous one
  // ended (here: at the feed's start) does not land either.
  const std::uint64_t firstLine = feed.find('\n') + 1;
  putJournal(withField("events_offset", std::to_string(firstLine))
                 .replace(line.find("\"events_bytes\": "),
                          std::string("\"events_bytes\": ").size() +
                              std::to_string(eventsSize).size(),
                          "\"events_bytes\": " +
                              std::to_string(eventsSize - firstLine)) +
             "\n");
  expectNotLanded();
  putJournal(withField("index", "1") + "\n");  // out of range
  expectNotLanded();
  // A shard lands once: a second line for it ends the valid prefix, even
  // one whose (empty) segment follows the first.
  const std::string again =
      withField("events_offset", std::to_string(eventsSize))
          .replace(line.find("\"events_bytes\": "),
                   std::string("\"events_bytes\": ").size() +
                       std::to_string(eventsSize).size(),
                   "\"events_bytes\": 0");
  putJournal(line + "\n" + again + "\n");
  EXPECT_EQ(landings().size(), 1u);
  EXPECT_EQ(store.readJournal(id, 1).end.journal, line.size() + 1);
  // Adoption's cut: a torn line and feed bytes past the last segment go.
  putJournal(line + "\n" + line.substr(0, 40));
  ASSERT_TRUE(serve::CampaignStore::appendFile(store.eventsPath(id),
                                               "{\"kind\": \"x\"}\n"));
  ASSERT_TRUE(store.truncateJournal(id, store.readJournal(id, 1).end));
  EXPECT_EQ(slurp(store.journalPath(id)), line + "\n");
  EXPECT_EQ(fs::file_size(store.eventsPath(id)), eventsSize);
  ASSERT_EQ(landings().size(), 1u);

  // Failure lines: a shard that failed for good is settled by a line of
  // its own, naming no segment.  A shard is settled once and in range,
  // whatever the kinds of its lines; a torn failure line settles nothing.
  const auto failure = [](const std::string& index) {
    return "{ \"schema\": \"confail.shard_failed.v1\", \"index\": " + index +
           " }";
  };
  const std::string failed0 = failure("0");
  struct Settles {
    std::string journal;
    std::size_t landed;
    std::size_t failed;
    std::uint64_t end;  ///< where the valid prefix ends
  };
  std::vector<Settles> cases = {
      {failed0 + "\n", 0, 1, failed0.size() + 1},
      {failure("1") + "\n", 0, 0, 0},  // out of range
      {failure(std::to_string(total)) + "\n", 0, 0, 0},
      {failed0 + "\n" + failed0 + "\n", 0, 1, failed0.size() + 1},
      {line + "\n" + failed0 + "\n", 1, 0, line.size() + 1},
      {failed0 + "\n" + line + "\n", 0, 1, failed0.size() + 1},
      {line + "\n" + failed0, 1, 0, line.size() + 1},  // torn
      {failed0, 0, 0, 0},
      {"{ \"schema\": \"confail.shard_failed.v1\" }\n", 0, 0, 0},
      {"{ \"schema\": \"confail.shard_failed.v1\", \"index\": 0, "
       "\"events_offset\": 0 }\n",
       0, 0, 0},
      {"{ \"schema\": \"confail.shard_failed.v1\", \"index\": 0, "
       "\"events_bytes\": 0 }\n",
       0, 0, 0},
      {"{ \"schema\": \"confail.shard_failed.v2\", \"index\": 0 }\n", 0, 0,
       0},
      {"[ \"confail.shard_failed.v1\", 0 ]\n", 0, 0, 0},
  };
  for (const char* odd : kOddCounts) {
    cases.push_back({failure(odd) + "\n", 0, 0, 0});
  }
  for (std::size_t cut = 0; cut < failed0.size(); ++cut) {
    cases.push_back({failed0.substr(0, cut) + "\n", 0, 0, 0});
  }
  for (const Settles& c : cases) {
    SCOPED_TRACE("journal: " + c.journal.substr(0, 200));
    putJournal(c.journal);
    const serve::CampaignStore::Journal j = store.readJournal(id, 1);
    EXPECT_EQ(j.landings.size(), c.landed);
    EXPECT_EQ(j.failed.size(), c.failed);
    EXPECT_EQ(j.end.journal, c.end);
    expectStatusMatchesJournal();
  }

  // Seeded mutations: rejected or decoded, without a crash or a sanitizer
  // report; a line that lands names a segment inside the feed, from its
  // start, ending a line.
  confail::SplitMix64 catalogueRng(0x5eed);
  static const char kBytes[] = {'"', '\\', '{', '}', '[', ']', ',', ':',
                                '0', 'e', '-', ' ', '\0', '\xff', 'n'};
  std::size_t landed = 0;
  for (int i = 0; i < 120; ++i) {
    std::string m = line;
    const std::size_t at = static_cast<std::size_t>(rng.below(m.size()));
    if (i % 3 == 0) {
      m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
    } else if (i % 3 == 1) {
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
               kBytes[rng.below(sizeof kBytes)]);
    } else {
      m = confail::json_mutation::mutate(m, catalogueRng);
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + m.substr(0, 200));
    (void)serve::CampaignStore::landingFromJson(m, parsed, error);
    putJournal(m + "\n");
    expectStatusMatchesJournal();
    const auto got = landings();
    if (got.empty()) continue;
    ++landed;
    const serve::CampaignStore::Segment& s = got.front().segment;
    EXPECT_EQ(s.offset, 0u);
    EXPECT_LE(s.bytes, eventsSize);
    EXPECT_TRUE(s.bytes == 0 || feed[s.bytes - 1] == '\n');
  }
  EXPECT_LT(landed, 120u);

  // Seeded mutations of failure lines, alone and beside the landing line:
  // shard 0 is settled at most once, and status() still agrees.
  std::size_t settledByFailure = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string m = confail::json_mutation::mutate(
        failure(std::to_string(rng.below(3))), catalogueRng);
    for (const std::string& journal :
         {m + "\n", line + "\n" + m + "\n", m + "\n" + line + "\n"}) {
      SCOPED_TRACE("failure mutant " + std::to_string(i) + ": " + m);
      putJournal(journal);
      const serve::CampaignStore::Journal j = store.readJournal(id, 1);
      EXPECT_LE(j.landings.size() + j.failed.size(), 1u);
      settledByFailure += j.failed.size();
      expectStatusMatchesJournal();
    }
  }
  EXPECT_GT(settledByFailure, 0u);
}

// A worker's reply is outside input too: a mutated one is rejected, or
// lands a segment that is exactly the scratch buffer's contents.
TEST(CampaignStore, ShardParserSurvivesSeededMutationsOfAWorkerReply) {
  const inject::JobSpec spec = smallSpec();
  confail::events::Trace run;
  const inject::ShardResult r =
      inject::runShard(spec, inject::expandShards(spec).at(0), {}, run);
  EventsBuffer events;
  std::uint64_t bytes = 0;
  ASSERT_TRUE(serve::CampaignStore::writeEvents(events.fd, run, bytes));
  const std::string jsonl = confail::obs::toJsonl(run);
  const std::string reply =
      "0 ok " + serve::CampaignStore::shardToJson(r, bytes);
  TempRoot root;
  const serve::CampaignStore store(root.str());
  const std::string id = "reply";
  fs::create_directories(store.jobDir(id));

  bool ok = false;
  std::string header;
  ASSERT_TRUE(serve::parseReply(reply, 0, ok, header));
  EXPECT_TRUE(ok);
  EXPECT_EQ("0 ok " + header, reply);
  EXPECT_TRUE(serve::parseReply("3 failed", 3, ok, header));
  EXPECT_FALSE(ok);
  for (const std::string bad :
       {"3 failed ", "3 failedx", "3 ok", "3 okay {}", "03 failed",
        "4 failed", "3  failed", "3", "", "failed", "3 ok\t{}"}) {
    EXPECT_FALSE(serve::parseReply(bad, 3, ok, header)) << bad;
  }

  confail::Xoshiro256 rng(77);
  confail::SplitMix64 catalogueRng(0xbeef);
  std::size_t accepted = 0;
  for (int i = 0; i < 160; ++i) {
    std::string m = reply;
    const std::size_t at = static_cast<std::size_t>(rng.below(m.size()));
    if (i == 0) {
      // unmutated
    } else if (i % 2 == 0) {
      m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
    } else {
      m = "0 ok " + confail::json_mutation::mutate(m.substr(5), catalogueRng);
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + m.substr(0, 200));
    inject::ShardResult parsed;
    std::uint64_t count = 0;
    std::string error;
    if (!serve::parseReply(m, 0, ok, header) || !ok ||
        !serve::CampaignStore::shardFromJson(header, parsed, count, error)) {
      continue;
    }
    serve::CampaignStore::JournalEnd end;
    if (!store.landShard(id, header, events.fd, count, end)) {
      EXPECT_EQ(end.feed, 0u);
      EXPECT_FALSE(fs::exists(store.eventsPath(id)) &&
                   fs::file_size(store.eventsPath(id)) != 0);
      continue;
    }
    ++accepted;
    EXPECT_EQ(count, bytes);
    const serve::CampaignStore::Journal journal =
        store.readJournal(id, parsed.spec.index + 1);
    ASSERT_EQ(journal.landings.size(), 1u);
    EXPECT_EQ(journal.landings[0].segment.bytes, bytes);
    inject::ShardResult back;
    ASSERT_TRUE(store.readShard(id, parsed.spec.index, back));
    EXPECT_EQ(back.eventsJsonl, jsonl);
    ASSERT_TRUE(store.truncateJournal(id, {}));
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 160u);
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
  EXPECT_EQ(journalText(store, id).size(), st.shardsTotal);

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
  // then holds its channel, reading every later request without answering
  // it, until the channel ends.  The daemon is therefore always mid-job,
  // with exactly one shard landed, when it dies, however fast shards run;
  // and since the hold ends with the daemon's end of the channel, the
  // wrapper cannot outlive it.
  TempRoot scripts;
  const std::string wrapper = (scripts.path / "worker.sh").string();
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\n"
        << "IFS= read -r request\n"
        << "printf '%s\\n' \"$request\" | '" << CONFAIL_CLI << "' \"$@\"\n"
        << "exec cat >/dev/null\n";
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
    landed = store.readJournal(id, total).landings.size();
    if (landed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(-child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_GE(landed, 1u);

  const serve::CampaignStore::Journal atKill = store.readJournal(id, total);
  const std::size_t landedAtKill = atKill.landings.size();
  ASSERT_LT(landedAtKill, total) << "daemon finished before the kill";
  EXPECT_EQ(landedAtKill, 1u) << "a blocked worker landed its shard";
  std::vector<std::string> linesAtKill = journalText(store, id);
  linesAtKill.resize(landedAtKill);
  const std::string feedAtKill =
      slurp(store.eventsPath(id)).substr(0, atKill.end.feed);
  serve::JobState killed;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, killed));
  EXPECT_EQ(killed.status, "running");
  EXPECT_EQ(killed.shardsDone, landedAtKill);

  // Second daemon over the same root: must finish the job.
  confail::obs::Registry reg;
  serve::ServerOptions opts;
  opts.root = root.str();
  opts.poolSize = 2;
  opts.subprocess = false;
  opts.exitWhenIdle = true;
  opts.metrics = &reg;
  serve::Server server(std::move(opts));
  EXPECT_EQ(server.run(), 0);

  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_EQ(st.shardsDone, total);

  // Zero re-runs: the second daemon ran only the shards that had not
  // landed, and every landed shard keeps its journal line and its feed
  // segment, byte for byte.
  EXPECT_EQ(reg.snapshot().counter("serve.shards_completed"),
            total - landedAtKill);
  std::vector<std::string> lines = journalText(store, id);
  ASSERT_EQ(lines.size(), total);  // exactly one journal line per shard
  lines.resize(landedAtKill);
  EXPECT_EQ(lines, linesAtKill);
  EXPECT_EQ(slurp(store.eventsPath(id)).substr(0, atKill.end.feed),
            feedAtKill);
  const serve::CampaignStore::Journal journal = store.readJournal(id, total);
  ASSERT_EQ(journal.landings.size(), total);  // each shard once
  EXPECT_EQ(journal.end.feed, fs::file_size(store.eventsPath(id)));

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

// A shard that failed for good is committed as a journal line: a daemon
// killed after that line, mid-job, is followed by one that runs only the
// shards the journal does not settle, never the failed one, and the job
// ends failed with the same count of failed shards.
TEST(Server, CommittedShardFailureIsNotRerunAfterACrash) {
  if (kUnderTsan) GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
  TempRoot root;
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  const std::string id = serve::submitJob(root.str(), spec);
  ASSERT_FALSE(id.empty());
  const std::size_t total = inject::expandShards(spec).size();
  ASSERT_GE(total, 3u);
  const serve::CampaignStore store(root.str());

  // The first daemon's only worker fails shard 0 on every request, fails
  // shard 1's first request, and hands the others to a real one-request
  // worker.  A failed request goes to the back of the queue, so shard 0
  // fails for good after every other shard but 1 has landed, and shard 1's
  // retry, next, is held: the wrapper reads on without answering until its
  // channel ends.
  TempRoot scripts;
  const std::string wrapper = (scripts.path / "worker.sh").string();
  const std::string marker = (scripts.path / "failed-once").string();
  {
    std::ofstream out(wrapper);
    out << "#!/bin/sh\n"
        << "while IFS=' ' read -r id shard; do\n"
        << "  if [ \"$shard\" = 0 ]; then echo '0 failed'; continue; fi\n"
        << "  if [ \"$shard\" = 1 ]; then\n"
        << "    if mkdir '" << marker << "' 2>/dev/null; then\n"
        << "      echo '1 failed'; continue\n"
        << "    fi\n"
        << "    exec cat >/dev/null\n"
        << "  fi\n"
        << "  printf '%s %s\\n' \"$id\" \"$shard\" | '" << CONFAIL_CLI
        << "' \"$@\" || exit 1\n"
        << "done\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all);

  // As in CrashResumeRerunsOnlyMissingShards: the daemon and its worker in
  // a process group of their own, killed together.
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
  ::setpgid(child, child);
  for (int spin = 0; spin < 20000; ++spin) {
    if (!store.readJournal(id, total).failed.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(-child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

  const serve::CampaignStore::Journal atKill = store.readJournal(id, total);
  ASSERT_EQ(atKill.failed, std::vector<std::size_t>{0});
  EXPECT_EQ(atKill.landings.size(), total - 2);
  serve::JobState killed;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, killed));
  EXPECT_EQ(killed.status, "running");
  EXPECT_EQ(killed.shardsDone, total - 2);
  EXPECT_EQ(killed.shardsFailed, 1u);

  // The second daemon runs shard 1 alone.
  confail::obs::Registry reg;
  EXPECT_EQ(serveToIdle(root.str(), false, &reg), 1);
  EXPECT_EQ(reg.snapshot().counter("serve.shards_completed"), 1u);
  EXPECT_EQ(reg.snapshot().counter("serve.shards_failed"), 0u);
  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "failed");
  EXPECT_EQ(st.shardsFailed, killed.shardsFailed);
  EXPECT_EQ(st.shardsDone, total - 1);
  EXPECT_EQ(journalText(store, id).size(), total);

  // A settled job is not reopened.
  confail::obs::Registry idle;
  EXPECT_EQ(serveToIdle(root.str(), false, &idle), 0);
  EXPECT_EQ(idle.snapshot().counter("serve.jobs_adopted"), 0u);
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
    const std::vector<bool> landed = landedShards(store, id, total);
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

// A worker killed mid-reply costs its shard one attempt, as one killed
// mid-shard does: the daemon lands nothing of a reply that lacks its
// newline, so no partial segment reaches the feed.
TEST(Server, WorkerKilledMidReplyLeavesNoPartialSegment) {
  if (kUnderTsan) GTEST_SKIP() << "fork-based crash test is unsafe under TSan";
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  const std::size_t total = inject::expandShards(spec).size();
  const std::size_t victim = 1;
  ASSERT_GT(total, victim + 1);
  TempRoot cleanRoot;
  const std::string id = serve::submitJob(cleanRoot.str(), spec);
  ASSERT_EQ(serveToIdle(cleanRoot.str(), false), 0);
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
    opts.workerBinary = killingWorker(scripts.path, victim, once, true);
    opts.exitWhenIdle = true;
    opts.metrics = &reg;
    const int rc = serve::Server(std::move(opts)).run();
    expectNoChildren("after the drain");

    const serve::CampaignStore store(root.str());
    serve::JobState st;
    ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
    const confail::obs::Snapshot snap = reg.snapshot();
    if (once) {
      EXPECT_EQ(rc, 0);
      EXPECT_EQ(st.status, "completed");
      EXPECT_EQ(st.shardsFailed, 0u);
      EXPECT_EQ(snap.counter("serve.workers_started"), 2u);
      expectExactFeed(store, cleanStore, id, total);
      continue;
    }
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(st.status, "failed");
    EXPECT_EQ(st.shardsFailed, 1u);
    EXPECT_EQ(snap.counter("serve.shards_failed"), 1u);
    // The feed is the other shards' segments end to end, nothing more.
    const serve::CampaignStore::Journal journal = store.readJournal(id, total);
    EXPECT_EQ(journal.landings.size(), total - 1);
    EXPECT_EQ(journal.end.feed, fs::file_size(store.eventsPath(id)));
    EXPECT_EQ(snap.counter("serve.events_bytes"), journal.end.feed);
    for (std::size_t i = 0; i < total; ++i) {
      inject::ShardResult got;
      inject::ShardResult want;
      EXPECT_EQ(store.readShard(id, i, got), i != victim) << "shard " << i;
      if (i == victim) continue;
      ASSERT_TRUE(cleanStore.readShard(id, i, want));
      EXPECT_EQ(got.eventsJsonl, want.eventsJsonl) << "shard " << i;
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

// A daemon killed between a shard's feed copy and its journal line left
// feed bytes no line commits: adoption cuts them, and the shard runs again.
TEST(Server, FeedBytesPastTheJournalAreCutAndTheShardReruns) {
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  for (const bool subprocess : {false, true}) {
    expectTornJournalReruns(spec, subprocess, Torn::FeedPastJournal);
  }
}

TEST(Server, TornLastJournalLineIsIgnoredAndTheShardReruns) {
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  for (const bool subprocess : {false, true}) {
    expectTornJournalReruns(spec, subprocess, Torn::TornLastLine);
  }
}

TEST(Server, JournalLineWhoseSegmentRunsPastTheFeedIsNotLanded) {
  inject::JobSpec spec = smallSpec();
  spec.scenarios = {"fig2", "lock_order"};
  for (const bool subprocess : {false, true}) {
    expectTornJournalReruns(spec, subprocess, Torn::SegmentPastFeed);
  }
}

// A spool an older daemon left (`{"shard": N}` journal lines, a feed, and
// shard files beside them) has no valid journal prefix: every shard runs
// again, and the feed holds each shard's events once.
TEST(Server, OlderSpoolRerunsEveryShard) {
  const inject::JobSpec spec = smallSpec();
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
  ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(store.journalPath(id),
                                                    "{\"shard\": 0}\n"));
  ASSERT_TRUE(serve::CampaignStore::writeFileAtomic(
      store.eventsPath(id), slurp(cleanStore.eventsPath(id))));
  confail::obs::Registry reg;
  ASSERT_EQ(serveToIdle(root.str(), false, &reg), 0);
  EXPECT_EQ(reg.snapshot().counter("serve.shards_completed"), total);
  expectExactFeed(store, cleanStore, id, total);
}

// A shard lands only when its feed copy and its journal line both succeed.
// A feed that cannot be opened (a directory in its place) or written (the
// full device: ENOSPC), or a journal that cannot take the line, fails
// every landing: each shard is retried once, then failed, the daemon exits
// 1, no journal line lands a shard, and no copied segment stays in the
// feed.  A journal that takes lines commits each shard's failure, so the
// job reads failed; a full one commits nothing, so the job reads running
// 0/N, and a daemon that finds room in it again retries every shard.
TEST(Server, FailedLandingIsRetriedThenFailed) {
  const inject::JobSpec spec = smallSpec();
  const std::size_t total = inject::expandShards(spec).size();
  enum class Broken { FeedIsADirectory, FeedIsFull, JournalIsFull };
  for (const Broken broken : {Broken::FeedIsADirectory, Broken::FeedIsFull,
                              Broken::JournalIsFull})
  for (const bool subprocess : {false, true}) {
    SCOPED_TRACE(std::to_string(static_cast<int>(broken)) +
                 (subprocess ? ", subprocess pool" : ", in-process pool"));
    TempRoot root;
    const serve::CampaignStore store(root.str());
    const std::string id = store.submit(spec);
    ASSERT_FALSE(id.empty());
    fs::create_directories(store.jobDir(id));
    switch (broken) {
      case Broken::FeedIsADirectory:
        fs::create_directories(store.eventsPath(id));
        break;
      case Broken::FeedIsFull:
        fs::create_symlink("/dev/full", store.eventsPath(id));
        break;
      case Broken::JournalIsFull:
        fs::create_symlink("/dev/full", store.journalPath(id));
        break;
    }
    confail::obs::Registry reg;
    EXPECT_EQ(serveToIdle(root.str(), subprocess, &reg), 1);
    const confail::obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("serve.shards_completed"), 0u);
    EXPECT_EQ(snap.counter("serve.shards_failed"), total);
    EXPECT_EQ(snap.counter("serve.events_bytes"), 0u);
    const serve::CampaignStore::Journal journal = store.readJournal(id, total);
    EXPECT_TRUE(journal.landings.empty());
    serve::JobState st;
    ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
    EXPECT_EQ(st.shardsDone, 0u);
    if (broken != Broken::JournalIsFull) {
      // The journal is one failure line per shard, and nothing else.
      EXPECT_EQ(st.status, "failed");
      EXPECT_EQ(st.shardsFailed, total);
      std::vector<std::size_t> failed = journal.failed;
      std::sort(failed.begin(), failed.end());
      std::vector<std::size_t> every;
      for (std::size_t i = 0; i < total; ++i) every.push_back(i);
      EXPECT_EQ(failed, every);
      EXPECT_EQ(journalText(store, id).size(), total);
      EXPECT_EQ(journal.end.journal, fs::file_size(store.journalPath(id)));
      continue;
    }
    EXPECT_EQ(st.status, "running");
    EXPECT_EQ(st.shardsFailed, 0u);
    EXPECT_EQ(fs::file_size(store.eventsPath(id)), 0u);
    fs::remove(store.journalPath(id));
    confail::obs::Registry again;
    EXPECT_EQ(serveToIdle(root.str(), subprocess, &again), 0);
    EXPECT_EQ(again.snapshot().counter("serve.shards_completed"), total);
    ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
    EXPECT_EQ(st.status, "completed");
    EXPECT_EQ(st.shardsDone, total);
  }
}

// A merged document that cannot be written stops the merge: the job is not
// reported completed, and the daemon exits 1.  The next daemon merges it
// again from the journal, running no shard, into the documents an
// uninterrupted run writes.
TEST(Server, FailedMergeWriteLeavesTheJobRunningUntilItMerges) {
  const inject::JobSpec spec = smallSpec();
  const std::size_t total = inject::expandShards(spec).size();
  TempRoot cleanRoot;
  const std::string id = serve::submitJob(cleanRoot.str(), spec);
  ASSERT_EQ(serveToIdle(cleanRoot.str(), false), 0);
  const serve::CampaignStore cleanStore(cleanRoot.str());
  serve::JobState clean;
  ASSERT_TRUE(serve::jobStatus(cleanRoot.str(), id, clean));
  ASSERT_EQ(clean.status, "completed");

  TempRoot root;
  const serve::CampaignStore store(root.str());
  ASSERT_EQ(store.submit(spec), id);
  inject::JobSpec adopted;
  std::string error;
  ASSERT_TRUE(store.adoptJob(id, adopted, error)) << error;
  fs::create_directories(store.sarifPath(id));
  confail::obs::Registry reg;
  EXPECT_EQ(serveToIdle(root.str(), false, &reg), 1);
  EXPECT_EQ(reg.snapshot().counter("serve.shards_completed"), total);
  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "running");
  EXPECT_EQ(st.shardsDone, total);
  EXPECT_FALSE(fs::exists(store.matrixPath(id)));
  serve::JobResults results;
  ASSERT_TRUE(serve::jobResults(root.str(), id, results));
  EXPECT_FALSE(results.complete);

  fs::remove(store.sarifPath(id));
  confail::obs::Registry again;
  EXPECT_EQ(serveToIdle(root.str(), false, &again), 0);
  EXPECT_EQ(again.snapshot().counter("serve.shards_completed"), 0u);
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "completed");
  EXPECT_EQ(st.shardsDone, total);
  EXPECT_EQ(st.findings, clean.findings);
  EXPECT_EQ(slurp(store.findingsPath(id)), slurp(cleanStore.findingsPath(id)));
  EXPECT_EQ(slurp(store.sarifPath(id)), slurp(cleanStore.sarifPath(id)));
}

// A drain creates no file per shard, and what it creates does not depend
// on the poll clock: a finished job's directory holds the same six files
// whatever its shard count, on both pools, and draining an adopted job
// creates the same files at a 1 ms poll as at a 1 s one.
TEST(Server, JobDirectoryHoldsNoPerShardFile) {
  inject::JobSpec smoke;  // the CLI smoke job of serve_cli_roundtrip
  smoke.name = "smoke";
  smoke.scenarios = {"fig2"};
  smoke.maxRuns = 80;
  inject::JobSpec grid;  // every registry scenario
  grid.name = "grid";
  grid.maxBranchDepth = 4;
  const std::size_t smokeShards = inject::expandShards(smoke).size();
  ASSERT_GE(inject::expandShards(grid).size(), 3 * smokeShards);
  const std::vector<std::string> expected = {
      "events.jsonl", "findings.json", "findings.sarif", "job.json",
      "journal.jsonl", "matrix.json"};
  // The feed and the journal, then each merged document written to a temp
  // file and renamed into place.
  constexpr std::size_t kCreatedPerDrain = 2 + 3 * 2;
  for (const bool subprocess : {false, true}) {
    for (const std::uint64_t pollMs : {1u, 1000u}) {
      SCOPED_TRACE(std::string(subprocess ? "subprocess pool"
                                          : "in-process pool") +
                   ", poll " + std::to_string(pollMs) + " ms");
      TempRoot root;
      const serve::CampaignStore store(root.str());
      const int watcher = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
      ASSERT_GE(watcher, 0);
      std::map<int, std::string> watched;  // watch descriptor -> job id
      std::vector<std::string> ids;
      for (const inject::JobSpec* spec : {&smoke, &grid}) {
        const std::string id = store.submit(*spec);
        inject::JobSpec adopted;
        std::string error;
        ASSERT_TRUE(store.adoptJob(id, adopted, error)) << error;
        const int wd = ::inotify_add_watch(watcher, store.jobDir(id).c_str(),
                                           IN_CREATE | IN_MOVED_TO);
        ASSERT_GE(wd, 0);
        watched[wd] = id;
        ids.push_back(id);
      }
      serve::ServerOptions opts;
      opts.root = root.str();
      opts.poolSize = 2;
      opts.subprocess = subprocess;
      opts.workerBinary = CONFAIL_CLI;
      opts.exitWhenIdle = true;
      opts.pollMs = pollMs;
      ASSERT_EQ(serve::Server(std::move(opts)).run(), 0);
      std::map<std::string, std::size_t> created;
      alignas(inotify_event) char buf[64 * 1024];
      for (ssize_t n; (n = ::read(watcher, buf, sizeof buf)) > 0;) {
        for (std::size_t at = 0; at < static_cast<std::size_t>(n);) {
          const auto* e = reinterpret_cast<const inotify_event*>(buf + at);
          EXPECT_EQ(e->mask & IN_Q_OVERFLOW, 0u);
          if ((e->mask & (IN_CREATE | IN_MOVED_TO)) != 0) {
            ++created[watched[e->wd]];
          }
          at += sizeof(inotify_event) + e->len;
        }
      }
      ::close(watcher);
      for (const std::string& id : ids) {
        std::vector<std::string> names;
        for (const auto& e : fs::directory_iterator(store.jobDir(id))) {
          names.push_back(e.path().filename().string());
        }
        std::sort(names.begin(), names.end());
        EXPECT_EQ(names, expected) << id;
        EXPECT_EQ(created[id], kCreatedPerDrain) << id;
      }
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
  ASSERT_TRUE(serve::jobStatus(root.str(), "broken", st));
  EXPECT_EQ(st.status, "failed");
  // The refusal's record is the job's empty directory.
  EXPECT_TRUE(fs::is_empty(store.jobDir("broken")));
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

  // Queued, and still queued with its job directory made but no job.json
  // in it, as in the middle of an adoption.
  serve::JobState st;
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "queued");
  fs::create_directories(store.jobDir(id));
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
  EXPECT_EQ(st.status, "queued");

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
  ASSERT_TRUE(serve::jobStatus(root.str(), id, st));
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
