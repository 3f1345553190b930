// Unit tests for the observability layer: metric primitives (counters,
// gauges, log2 histograms, scoped timers), snapshot serialization, the JSON
// writer/parser pair, and the structured trace exporters.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/summary.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/support/assert.hpp"

namespace ev = confail::events;
namespace obs = confail::obs;

// ---- histogram bucket geometry --------------------------------------------

TEST(Histogram, BucketIndexBoundaries) {
  // Bucket 0 holds exactly v == 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::bucketIndex(7), 3u);
  EXPECT_EQ(obs::Histogram::bucketIndex(8), 4u);
  EXPECT_EQ(obs::Histogram::bucketIndex(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucketIndex(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucketIndex(~0ull), 64u);
  // Every bucket's inclusive upper bound maps back into that bucket, and
  // the next value maps into the next bucket.
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t ub = obs::Histogram::bucketUpperBound(i);
    EXPECT_EQ(obs::Histogram::bucketIndex(ub), i) << "bucket " << i;
    EXPECT_EQ(obs::Histogram::bucketIndex(ub + 1), i + 1) << "bucket " << i;
  }
  EXPECT_EQ(obs::Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketUpperBound(4), 15u);
  EXPECT_EQ(obs::Histogram::bucketUpperBound(64), ~0ull);
}

TEST(Histogram, ObserveTracksStats) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0, not ~0
  EXPECT_EQ(h.max(), 0u);
  for (std::uint64_t v : {5ull, 9ull, 100ull, 0ull}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 114u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucketCount(0), 1u);  // the 0
  EXPECT_EQ(h.bucketCount(3), 1u);  // 5 in [4,8)
  EXPECT_EQ(h.bucketCount(4), 1u);  // 9 in [8,16)
  EXPECT_EQ(h.bucketCount(7), 1u);  // 100 in [64,128)
}

TEST(Histogram, QuantileUpperBound) {
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(10);   // bucket 4, ub 15
  h.observe(1000);                              // bucket 10, ub 1023
  EXPECT_EQ(h.quantileUpperBound(0.5), 15u);
  EXPECT_EQ(h.quantileUpperBound(0.99), 15u);
  EXPECT_EQ(h.quantileUpperBound(1.0), 1023u);
}

// ---- counters: shard merging and concurrency ------------------------------

TEST(Counter, SumsAcrossShardsExactly) {
  obs::Counter c;
  for (int i = 0; i < 1000; ++i) c.inc();
  c.add(24);
  EXPECT_EQ(c.value(), 1024u);
}

TEST(Counter, ConcurrentIncrementsAreNotLost) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.hits");
  obs::Histogram& h = reg.histogram("test.lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 6u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  g.add(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
}

TEST(ScopedTimer, ObservesOnDestruction) {
  obs::Histogram h;
  { obs::ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
  { obs::ScopedTimer t(nullptr); }  // null histogram: no-op, no crash
}

// ---- registry + snapshot ---------------------------------------------------

TEST(Registry, HandlesAreStableAndNamed) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);  // same name -> same handle
  a.add(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe(42);

  obs::Snapshot s = reg.snapshot();
  EXPECT_TRUE(s.has("x"));
  EXPECT_TRUE(s.has("g"));
  EXPECT_TRUE(s.has("h"));
  EXPECT_FALSE(s.has("absent"));
  EXPECT_EQ(s.counter("x"), 3u);
  EXPECT_DOUBLE_EQ(s.gauge("g"), 1.5);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 1u);
  EXPECT_EQ(s.histograms[0].sum, 42u);
}

TEST(Snapshot, JsonRoundTripsThroughParser) {
  obs::Registry reg;
  reg.counter("runs").add(7);
  reg.gauge("rate").set(123.456);
  reg.histogram("steps").observe(10);
  reg.histogram("steps").observe(100);

  obs::JsonValue doc = obs::parseJson(reg.snapshot().toJson());
  ASSERT_TRUE(doc.isObject());
  const obs::JsonValue* runs = doc.at("counters.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_DOUBLE_EQ(runs->number, 7.0);
  const obs::JsonValue* rate = doc.at("gauges.rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_NEAR(rate->number, 123.456, 1e-9);
  const obs::JsonValue* steps = doc.at("histograms.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_DOUBLE_EQ(steps->get("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(steps->get("sum")->number, 110.0);
  ASSERT_TRUE(steps->get("buckets")->isArray());
  EXPECT_EQ(steps->get("buckets")->array.size(), 2u);
}

// ---- ExploreSummary --------------------------------------------------------

// Wall time varies from run to run: an unmeasured summary leaves it out of
// the JSON, as the text rendering does, instead of printing zeros.
TEST(ExploreSummary, JsonOmitsUnmeasuredTimingAndCarriesSleepBlockedRuns) {
  obs::ExploreSummary s;
  s.scenario = "ff_t5";
  s.runs = 10;
  s.sleepBlockedRuns = 3;
  obs::JsonValue doc = obs::parseJson(s.toJson());
  ASSERT_NE(doc.get("sleep_blocked_runs"), nullptr);
  EXPECT_DOUBLE_EQ(doc.get("sleep_blocked_runs")->number, 3.0);
  EXPECT_EQ(doc.get("elapsed_ms"), nullptr);
  EXPECT_EQ(doc.get("runs_per_sec"), nullptr);
  EXPECT_EQ(s.human().find("elapsed"), std::string::npos);

  s.elapsedMs = 20.0;
  s.runsPerSec = 500.0;
  doc = obs::parseJson(s.toJson());
  ASSERT_NE(doc.get("elapsed_ms"), nullptr);
  EXPECT_DOUBLE_EQ(doc.get("elapsed_ms")->number, 20.0);
  ASSERT_NE(doc.get("runs_per_sec"), nullptr);
  EXPECT_DOUBLE_EQ(doc.get("runs_per_sec")->number, 500.0);
}

// ---- JSON writer/parser pair ----------------------------------------------

TEST(Json, WriterEscapesAndParserAccepts) {
  obs::JsonWriter w;
  w.beginObject();
  w.field("quote\"slash\\", std::string("a\"b"));
  w.field("n", 42);
  w.field("f", 1.5);
  w.field("b", true);
  w.key("arr");
  w.beginArray();
  w.value(1);
  w.value("two");
  w.endArray();
  w.endObject();

  obs::JsonValue doc = obs::parseJson(w.str());
  EXPECT_EQ(doc.get("quote\"slash\\")->string, "a\"b");
  EXPECT_DOUBLE_EQ(doc.get("n")->number, 42.0);
  EXPECT_TRUE(doc.get("b")->boolean);
  ASSERT_TRUE(doc.get("arr")->isArray());
  EXPECT_EQ(doc.get("arr")->array[1].string, "two");
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(obs::parseJson("{"), confail::UsageError);
  EXPECT_THROW(obs::parseJson("[1,]"), confail::UsageError);
  EXPECT_THROW(obs::parseJson("{\"a\": 1} trailing"), confail::UsageError);
}

// ---- trace exporters -------------------------------------------------------

namespace {

// A hand-built two-thread trace with one full lock/wait/notify cycle.
ev::Trace demoTrace() {
  ev::Trace t;
  t.nameThread(0, "waiter");
  t.nameThread(1, "notifier");
  t.nameMonitor(0, "mon");
  t.nameMethod(0, "mon.use");
  auto rec = [&t](ev::ThreadId th, ev::EventKind k) {
    ev::Event e;
    e.thread = th;
    e.kind = k;
    e.monitor = 0;
    e.method = 0;
    t.record(e);
  };
  rec(0, ev::EventKind::MethodEnter);
  rec(0, ev::EventKind::LockRequest);
  rec(0, ev::EventKind::LockAcquire);
  rec(0, ev::EventKind::WaitBegin);
  rec(1, ev::EventKind::LockRequest);
  rec(1, ev::EventKind::LockAcquire);
  rec(1, ev::EventKind::NotifyCall);
  rec(1, ev::EventKind::LockRelease);
  rec(0, ev::EventKind::Notified);
  rec(0, ev::EventKind::LockRelease);
  rec(0, ev::EventKind::MethodExit);
  return t;
}

}  // namespace

TEST(TraceExport, ChromeTraceIsValidAndCoversAllThreads) {
  ev::Trace t = demoTrace();
  obs::JsonValue doc = obs::parseJson(obs::toChromeTrace(t));
  const obs::JsonValue* evs = doc.get("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->isArray());

  int named = 0;
  int slicesT0 = 0, slicesT1 = 0;
  bool sawWait = false;
  for (const obs::JsonValue& e : evs->array) {
    const std::string ph = e.get("ph")->string;
    const double tid = e.get("tid")->number;
    if (ph == "M") {
      ++named;
      continue;
    }
    if (ph == "X") {
      (tid == 0.0 ? slicesT0 : slicesT1)++;
      if (e.get("name")->string.rfind("wait", 0) == 0) sawWait = true;
      EXPECT_GE(e.get("dur")->number, 1.0);
    }
  }
  EXPECT_EQ(named, 2);       // both threads get thread_name metadata
  EXPECT_GE(slicesT0, 3);    // method + hold + wait at least
  EXPECT_GE(slicesT1, 1);    // the notifier's hold slice
  EXPECT_TRUE(sawWait);
}

TEST(TraceExport, JsonlOneParseableObjectPerEvent) {
  ev::Trace t = demoTrace();
  const std::string jsonl = obs::toJsonl(t);
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    const std::string line = jsonl.substr(pos, nl - pos);
    if (!line.empty()) {
      obs::JsonValue e = obs::parseJson(line);
      EXPECT_TRUE(e.isObject());
      EXPECT_NE(e.get("kind"), nullptr);
      EXPECT_NE(e.get("seq"), nullptr);
      ++lines;
    }
    pos = nl + 1;
  }
  EXPECT_EQ(lines, t.size());
}
