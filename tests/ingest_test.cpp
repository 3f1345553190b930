// Streaming ingest: the bounded-cost ring, the JSONL/Chrome decoders, the
// IngestPipeline, and the differential contract — replaying a recorded
// run's event stream through the incremental battery must reproduce the
// offline DetectorSuite's findings byte for byte (documents included).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/detect/streaming_suite.hpp"
#include "confail/detect/suite.hpp"
#include "confail/events/trace.hpp"
#include "confail/gen/generator.hpp"
#include "confail/gen/interpret.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/ingest/line_scan.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/ingest/ring.hpp"
#include "confail/inject/campaign.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/obs/json.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/support/assert.hpp"
#include "confail/support/rng.hpp"
#include "json_mutate.hpp"

namespace {

using confail::events::Event;
using confail::json_mutation::mutate;
using confail::events::EventKind;
using confail::events::Trace;
namespace detect = confail::detect;
namespace ingest = confail::ingest;
namespace obs = confail::obs;
namespace scenarios = confail::components::scenarios;

#if defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ingest::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(ingest::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(ingest::SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(ingest::SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, FifoOrderAcrossWraparound) {
  ingest::SpscRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.tryPop(out));
  // Push/pop interleaved far past the capacity: order must survive the
  // index wraparound.
  int next = 0;
  for (int v = 0; v < 1000; ++v) {
    if (!ring.tryPush(v)) {
      ASSERT_TRUE(ring.tryPop(out));
      ASSERT_EQ(out, next++);
      ASSERT_TRUE(ring.tryPush(v));
    }
  }
  while (ring.tryPop(out)) {
    ASSERT_EQ(out, next++);
  }
  EXPECT_EQ(next, 1000);
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(SpscRing, OverflowDropsAreCountedNotStored) {
  ingest::SpscRing<int> ring(2);
  ASSERT_TRUE(ring.pushOrDrop(1));
  ASSERT_TRUE(ring.pushOrDrop(2));
  EXPECT_FALSE(ring.tryPush(3));
  EXPECT_EQ(ring.drops(), 0u);  // tryPush never counts
  EXPECT_FALSE(ring.pushOrDrop(3));
  EXPECT_FALSE(ring.pushOrDrop(4));
  EXPECT_EQ(ring.drops(), 2u);
  int out = 0;
  ASSERT_TRUE(ring.tryPop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(ring.tryPop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.tryPop(out));
}

TEST(SpscRing, ConcurrentProducerConsumerLosesNothing) {
  const int n = kSanitized ? 20000 : 200000;
  ingest::SpscRing<int> ring(64);
  std::thread producer([&] {
    for (int v = 0; v < n; ++v) {
      while (!ring.tryPush(v)) {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  int out = 0;
  while (expected < n) {
    if (ring.tryPop(out)) {
      ASSERT_EQ(out, expected++);
    }
  }
  producer.join();
  EXPECT_EQ(ring.drops(), 0u);
  EXPECT_EQ(ring.approxSize(), 0u);
}

// ---------------------------------------------------------------------------
// NameTable
// ---------------------------------------------------------------------------

TEST(NameTable, FallbacksMatchTraceConvention) {
  ingest::NameTable names;
  Trace trace;
  // Unregistered ids must render identically on both paths — that is what
  // makes streaming and offline reports byte-comparable.
  EXPECT_EQ(names.threadName(7), trace.threadName(7));
  EXPECT_EQ(names.monitorName(3), trace.monitorName(3));
  EXPECT_EQ(names.varName(0), trace.varName(0));
  EXPECT_EQ(names.methodName(9), trace.methodName(9));
  names.thread(1, "worker");
  trace.nameThread(1, "worker");
  EXPECT_EQ(names.threadName(1), trace.threadName(1));
}

TEST(NameTable, InternFindsTheLowestIdAStoredNameHas) {
  ingest::NameTable names;
  names.var(5, "x");
  names.var(2, "x");
  names.var(2, "y");  // an id keeps its first name
  EXPECT_EQ(names.internVar("x"), 2u);
  EXPECT_EQ(names.varName(2), "x");
  EXPECT_EQ(names.internVar("y"), 6u);  // fresh ids follow the highest
  EXPECT_EQ(names.internVar(""), 0u);   // unnamed slots match ""
}

TEST(NameTable, StrayHugeIdsStaySparse) {
  // A corrupt line can carry any 32-bit id; naming it must not size a
  // table to it.
  ingest::NameTable names;
  names.monitor(4000000000u, "far");
  names.monitor(0xffffffffu, "sentinel");
  EXPECT_EQ(names.monitorName(4000000000u), "far");
  EXPECT_EQ(names.monitorName(0xffffffffu), "monitor-4294967295");
  EXPECT_EQ(names.internMonitor("far"), 4000000000u);
  EXPECT_EQ(names.internMonitor("near"), 4000000001u);
}

TEST(NameTable, InternAssignsDenseIdsFirstSeen) {
  ingest::NameTable names;
  EXPECT_EQ(names.internThread("a"), 0u);
  EXPECT_EQ(names.internThread("b"), 1u);
  EXPECT_EQ(names.internThread("a"), 0u);
  EXPECT_EQ(names.threadName(1), "b");
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

Trace captureScenario(const scenarios::NamedScenario& sc) {
  Trace trace;
  obs::Registry metrics;
  confail::inject::ExploreConfig cfg;
  cfg.scenario(sc);
  cfg.capture(trace, metrics);
  return trace;
}

detect::ReportSink offlineSink(const Trace& trace) {
  detect::DetectorSuite suite;
  detect::ReportSink sink;
  sink.setSource("differential");
  for (const auto& report : suite.analyzeEach(trace)) {
    sink.addAll(report.detector, report.findings);
  }
  return sink;
}

/// The differential contract: JSONL export -> pipeline -> findings equal
/// the offline battery's, as rendered documents (JSON and SARIF).
void expectStreamingMatchesOffline(const Trace& trace,
                                   ingest::IngestOptions opts = {}) {
  const detect::ReportSink offline = offlineSink(trace);

  ingest::IngestPipeline pipe(opts);
  detect::ReportSink online;
  online.setSource("differential");
  std::istringstream in(obs::toJsonl(trace));
  const ingest::IngestStats st = pipe.run(in, online);

  EXPECT_EQ(st.malformed, 0u);
  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(st.ringDrops, 0u);
  ASSERT_EQ(st.eventsAnalyzed, trace.size());

  const detect::TraceNames offNames(trace);
  EXPECT_EQ(offline.toJson(offNames), online.toJson(pipe.names()));
  EXPECT_EQ(offline.toSarif(offNames), online.toSarif(pipe.names()));
}

// ---------------------------------------------------------------------------
// JsonlDecoder
// ---------------------------------------------------------------------------

TEST(JsonlDecoder, LosslessRoundTripOnEveryRegistryScenario) {
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    const Trace trace = captureScenario(sc);
    const std::string jsonl = obs::toJsonl(trace);

    ingest::JsonlDecoder dec;
    std::vector<Event> decoded;
    const auto emit = [&](const Event& e) { decoded.push_back(e); };
    // Feed in deliberately awkward 7-byte chunks: every line crosses a
    // chunk boundary somewhere.
    for (std::size_t i = 0; i < jsonl.size(); i += 7) {
      dec.feed(std::string_view(jsonl).substr(i, 7), emit);
    }
    dec.flush(emit);

    EXPECT_EQ(dec.stats().malformed, 0u) << sc.name;
    EXPECT_EQ(dec.stats().truncated, 0u) << sc.name;
    ASSERT_EQ(decoded, trace.events()) << sc.name;
    for (const Event& e : decoded) {
      if (e.thread != confail::events::kNoThread) {
        EXPECT_EQ(dec.names().threadName(e.thread),
                  trace.threadName(e.thread));
      }
      if (e.monitor != confail::events::kNoMonitor) {
        EXPECT_EQ(dec.names().monitorName(e.monitor),
                  trace.monitorName(e.monitor));
      }
    }
  }
}

TEST(JsonlDecoder, UnterminatedTailThatParsesIsEmittedAtFlush) {
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  std::string jsonl = obs::toJsonl(trace);
  ASSERT_EQ(jsonl.back(), '\n');
  jsonl.pop_back();  // writer crashed before the final newline

  ingest::JsonlDecoder dec;
  std::vector<Event> decoded;
  const auto emit = [&](const Event& e) { decoded.push_back(e); };
  dec.feed(jsonl, emit);
  EXPECT_TRUE(dec.hasPartialLine());
  dec.flush(emit);
  EXPECT_EQ(dec.stats().truncated, 0u);
  EXPECT_EQ(decoded, trace.events());
}

TEST(JsonlDecoder, TruncatedTailIsCountedAndDropped) {
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  const std::string jsonl = obs::toJsonl(trace);
  const std::size_t firstLine = jsonl.find('\n') + 1;
  // First full line plus half of the second: the torn half-object must not
  // become a phantom event.
  const std::string torn = jsonl.substr(0, firstLine + 20);

  ingest::JsonlDecoder dec;
  std::vector<Event> decoded;
  const auto emit = [&](const Event& e) { decoded.push_back(e); };
  dec.feed(torn, emit);
  dec.flush(emit);
  EXPECT_EQ(decoded.size(), 1u);
  EXPECT_EQ(dec.stats().truncated, 1u);
  EXPECT_EQ(dec.stats().malformed, 0u);
}

TEST(JsonlDecoder, MalformedCompleteLineIsSkippedNotFatal) {
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  const std::string jsonl = obs::toJsonl(trace);
  ingest::JsonlDecoder dec;
  std::vector<Event> decoded;
  const auto emit = [&](const Event& e) { decoded.push_back(e); };
  dec.feed("this is not json\n", emit);
  dec.feed(jsonl, emit);
  dec.flush(emit);
  EXPECT_EQ(dec.stats().malformed, 1u);
  EXPECT_EQ(decoded, trace.events());
}

TEST(JsonlDecoder, InPlaceAndCarriedLinesDecodeAlike) {
  // Lines wholly inside a chunk decode in place; a line a chunk cuts is
  // carried over.  Any mix of chunk sizes must decode like one big chunk.
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  const std::string jsonl = obs::toJsonl(trace);
  confail::SplitMix64 rng(17);
  ingest::JsonlDecoder dec;
  std::vector<Event> decoded;
  const auto emit = [&](const Event& e) { decoded.push_back(e); };
  for (std::size_t i = 0; i < jsonl.size();) {
    const std::size_t n = 1 + rng.next() % 600;
    dec.feed(std::string_view(jsonl).substr(i, n), emit);
    i += n;
  }
  dec.flush(emit);
  EXPECT_EQ(dec.stats().lines, trace.size());
  EXPECT_EQ(dec.stats().malformed, 0u);
  EXPECT_EQ(decoded, trace.events());
}

// ---------------------------------------------------------------------------
// Line scanner vs DOM: the decode fast path against its reference
// ---------------------------------------------------------------------------

/// Every JSONL line the differential suites stream: each registry
/// scenario's export and each fuzzer program's (the DifferentialOn-
/// FuzzerPrograms seeds), one stream per trace.
std::vector<std::vector<std::string>> exportedStreams() {
  std::vector<Trace> traces;
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    traces.push_back(captureScenario(sc));
  }
  const std::uint64_t seeds = kSanitized ? 10 : 50;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const auto sc = confail::gen::asScenario(
        confail::gen::generate(seed, confail::gen::GenConfig{}),
        "gen_stream_test");
    traces.push_back(captureScenario(sc));
  }
  std::vector<std::vector<std::string>> streams;
  for (const Trace& t : traces) {
    std::vector<std::string> lines;
    obs::forEachJsonlLine(t, [&](const std::string& l) { lines.push_back(l); });
    streams.push_back(std::move(lines));
  }
  return streams;
}

/// Decode `lines` twice — the production path (scanner, DOM fallback) and
/// the DOM alone — and require the same verdict, event and names on every
/// line.  Returns how many lines the scanner claimed.
std::size_t expectScannerMatchesDom(const std::vector<std::string>& lines) {
  ingest::NameTable fast;
  ingest::NameTable dom;
  std::size_t claimed = 0;
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    ingest::LineFields fields;
    if (ingest::scanLine(line, fields)) ++claimed;
    Event a;
    Event b;
    const bool okA = ingest::decodeJsonlLine(line, fast, a);
    const bool okB = ingest::decodeJsonlLineDom(line, dom, b);
    EXPECT_EQ(okA, okB);
    if (!okA || !okB) continue;
    EXPECT_EQ(a, b);
    EXPECT_EQ(fast.threadName(a.thread), dom.threadName(a.thread));
    EXPECT_EQ(fast.monitorName(a.monitor), dom.monitorName(a.monitor));
    EXPECT_EQ(fast.methodName(a.method), dom.methodName(a.method));
    const auto aux = static_cast<std::uint32_t>(a.aux);
    EXPECT_EQ(fast.varName(aux), dom.varName(aux));
    EXPECT_EQ(fast.threadName(aux), dom.threadName(aux));
    EXPECT_EQ(fast.methodName(aux), dom.methodName(aux));
  }
  return claimed;
}

TEST(LineScanner, ClaimsEveryExportedLineAndMatchesTheDom) {
  for (const std::vector<std::string>& lines : exportedStreams()) {
    EXPECT_EQ(expectScannerMatchesDom(lines), lines.size());
  }
}

TEST(LineScanner, SeededMutationsDecodeLikeTheDom) {
  confail::SplitMix64 rng(2003);
  std::size_t total = 0;
  std::size_t claimed = 0;
  for (const std::vector<std::string>& lines : exportedStreams()) {
    std::vector<std::string> mutated;
    for (const std::string& line : lines) {
      mutated.push_back(line);
      for (int k = 0; k < 3; ++k) mutated.push_back(mutate(line, rng));
    }
    total += mutated.size();
    claimed += expectScannerMatchesDom(mutated);
  }
  // Both paths must have been exercised: the originals and many byte
  // flips are the scanner's, every escape, tab and nested value the DOM's.
  EXPECT_GT(claimed, total / 4);
  EXPECT_LT(claimed, total);
}

TEST(LineScanner, DeclinesWhatOnlyTheDomMayDecide) {
  ingest::LineFields f;
  const std::string ok = R"({ "seq": 1, "kind": "Read", "thread": 0 })";
  EXPECT_TRUE(ingest::scanLine(ok, f));
  for (const char* line : {
           R"({ "seq": 1, "kind": "Re\"ad" })",   // escape
           R"({ "seq": 1.5, "kind": "Read" })",   // float
           R"({ "seq": 1e3, "kind": "Read" })",   // exponent
           R"({ "seq": -1, "kind": "Read" })",    // sign
           R"({ "seq": 1234567890123456, "kind": "Read" })",  // 16 digits
           R"({ "seq": 1, "seq": 2, "kind": "Read" })",       // repeat
           R"({ "seq": 1, "kind": "Read", "x": null })",      // null
           R"({ "seq": 1, "kind": "Read", "x": [] })",        // nested
           "{\t\"seq\": 1, \"kind\": \"Read\" }",             // tab
           "{ \"seq\": 1, \"kind\": \"Read\" }\r",            // CR
           "{}",                                              // empty
           R"({ "seq": 1, "kind": "Read" } x)",               // trailing
           R"({ "seq": 1, "kind": "Read")",                   // torn
       }) {
    EXPECT_FALSE(ingest::scanLine(line, f)) << line;
  }
}

// ---------------------------------------------------------------------------
// Block decode ≡ serial decode
// ---------------------------------------------------------------------------

/// Everything a decode of a stream produces.
struct Decoded {
  std::vector<Event> events;
  ingest::JsonlDecoder::Stats stats;
  ingest::NameTable names;
};

/// The reference: every line through decodeJsonlLine, one at a time and
/// in order, the unterminated tail as flush() treats it.
Decoded serialReference(std::string_view text) {
  Decoded d;
  d.stats.bytes = text.size();
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const bool tail = nl == std::string_view::npos;
    const std::string_view line =
        text.substr(start, tail ? std::string_view::npos : nl - start);
    start = tail ? text.size() : nl + 1;
    if (line.empty()) continue;
    Event e;
    const bool ok = ingest::decodeJsonlLine(line, d.names, e);
    if (tail && !ok) {
      ++d.stats.truncated;
      continue;
    }
    ++d.stats.lines;
    if (ok) {
      ++d.stats.events;
      d.events.push_back(e);
    } else {
      ++d.stats.malformed;
    }
  }
  return d;
}

/// JsonlDecoder::feed in `chunk`-byte pieces, then flush.
Decoded feedInChunks(std::string_view text, std::size_t chunk) {
  Decoded d;
  ingest::JsonlDecoder dec;
  const auto emit = [&d](const Event& e) { d.events.push_back(e); };
  for (std::size_t i = 0; i < text.size(); i += chunk) {
    dec.feed(text.substr(i, chunk), emit);
  }
  dec.flush(emit);
  d.stats = dec.stats();
  d.names = dec.names();
  return d;
}

/// The pipeline's schedule by hand: cut whole-line blocks of at most
/// `blockBytes`, decode them all last-first (as helpers finishing out of
/// order might), commit them in order, then the tail through feed/flush.
Decoded blocksOutOfOrder(std::string_view text, std::size_t blockBytes) {
  std::vector<std::string_view> cuts;
  std::string_view rest = text;
  for (std::size_t n; (n = ingest::wholeLinesPrefix(rest, blockBytes)) > 0;) {
    cuts.push_back(rest.substr(0, n));
    rest.remove_prefix(n);
  }
  std::vector<ingest::DecodedBlock> blocks(cuts.size());
  for (std::size_t i = cuts.size(); i-- > 0;) {
    ingest::decodeBlock(cuts[i], blocks[i]);
  }
  Decoded d;
  ingest::JsonlDecoder dec;
  const auto emit = [&d](const Event& e) { d.events.push_back(e); };
  for (const ingest::DecodedBlock& b : blocks) dec.commit(b, emit);
  dec.feed(rest, emit);
  dec.flush(emit);
  d.stats = dec.stats();
  d.names = dec.names();
  return d;
}

/// Same events, every Stats field, and the same name tables: the same
/// name for every id the stream mentions, and the same id when the same
/// names are interned afterwards.
void expectSameDecode(const Decoded& got, const Decoded& want) {
  EXPECT_EQ(got.stats.bytes, want.stats.bytes);
  EXPECT_EQ(got.stats.lines, want.stats.lines);
  EXPECT_EQ(got.stats.events, want.stats.events);
  EXPECT_EQ(got.stats.malformed, want.stats.malformed);
  EXPECT_EQ(got.stats.truncated, want.stats.truncated);
  ASSERT_EQ(got.events, want.events);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < 64; ++id) ids.push_back(id);
  for (const Event& e : want.events) {
    ids.insert(ids.end(), {e.thread, e.monitor, e.method,
                           static_cast<std::uint32_t>(e.aux)});
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ingest::NameTable a = got.names;
  ingest::NameTable b = want.names;
  for (const std::uint32_t id : ids) {
    ASSERT_EQ(a.threadName(id), b.threadName(id)) << id;
    ASSERT_EQ(a.monitorName(id), b.monitorName(id)) << id;
    ASSERT_EQ(a.varName(id), b.varName(id)) << id;
    ASSERT_EQ(a.methodName(id), b.methodName(id)) << id;
  }
  for (const std::uint32_t id : ids) {
    const std::string n = b.varName(id);
    ASSERT_EQ(a.internThread(n), b.internThread(n)) << n;
    ASSERT_EQ(a.internMonitor(n), b.internMonitor(n)) << n;
    ASSERT_EQ(a.internVar(n), b.internVar(n)) << n;
    ASSERT_EQ(a.internMethod(n), b.internMethod(n)) << n;
  }
}

/// Every decode schedule against the serial reference.
void expectEveryScheduleDecodesAlike(const std::string& text) {
  const Decoded want = serialReference(text);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{333}, std::size_t{4096},
        ingest::kDecodeBlockBytes, ingest::kDecodeBlockBytes + 1,
        std::size_t{1} << 20}) {
    if (chunk < 64 && text.size() > (1u << 20)) continue;  // too slow
    SCOPED_TRACE("feed chunk " + std::to_string(chunk));
    expectSameDecode(feedInChunks(text, chunk), want);
  }
  for (const std::size_t block :
       {std::size_t{1}, std::size_t{200}, std::size_t{4096},
        ingest::kDecodeBlockBytes}) {
    SCOPED_TRACE("block " + std::to_string(block));
    expectSameDecode(blocksOutOfOrder(text, block), want);
  }
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l + '\n';
  return text;
}

/// A v2 line as a v1 writer would have put it: names without their ids.
std::string toV1(const std::string& line) {
  std::string out = line;
  for (const char* key : {"method_ctx", "var_id", "child_id",
                          "guard_method_id", "method_id"}) {
    const std::string k = std::string(", \"") + key + "\": ";
    const std::size_t at = out.find(k);
    if (at == std::string::npos) continue;
    std::size_t end = at + k.size();
    while (end < out.size() && out[end] >= '0' && out[end] <= '9') ++end;
    out.erase(at, end - at);
  }
  return out;
}

TEST(BlockDecode, ExportsDecodeLikeTheSerialReference) {
  std::string all;
  for (const std::vector<std::string>& lines : exportedStreams()) {
    const std::string text = joinLines(lines);
    SCOPED_TRACE(lines.front());
    expectEveryScheduleDecodesAlike(text);
    all += text;
  }
  // One long stream too: many blocks, and names first seen deep into it.
  expectEveryScheduleDecodesAlike(all);
}

TEST(BlockDecode, V1AndV2LinesNamingTheSameStringsInEitherOrder) {
  std::size_t streams = 0;
  std::size_t withIds = 0;  // streams whose v1 form differs
  for (const std::vector<std::string>& lines : exportedStreams()) {
    if (++streams > 12) break;
    std::vector<std::string> v1;
    for (const std::string& l : lines) v1.push_back(toV1(l));
    if (v1 != lines) ++withIds;
    std::vector<std::string> interleaved;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      interleaved.push_back(i % 2 == 0 ? v1[i] : lines[i]);
      interleaved.push_back(i % 2 == 0 ? lines[i] : v1[i]);
    }
    std::vector<std::string> v1First = v1;
    v1First.insert(v1First.end(), lines.begin(), lines.end());
    std::vector<std::string> v2First = lines;
    v2First.insert(v2First.end(), v1.begin(), v1.end());
    for (const auto* mix : {&v1First, &v2First, &interleaved}) {
      expectEveryScheduleDecodesAlike(joinLines(*mix));
    }
  }
  EXPECT_GT(withIds, 6u);
}

/// The first 20 exported streams, each line followed by a mutant of it
/// and the v1 form of another, as one text per stream.
std::vector<std::string> seededMutationCorpus() {
  confail::SplitMix64 rng(2003);
  std::vector<std::string> corpus;
  for (const std::vector<std::string>& lines : exportedStreams()) {
    if (corpus.size() == 20) break;
    std::vector<std::string> mutated;
    for (const std::string& line : lines) {
      mutated.push_back(line);
      mutated.push_back(mutate(line, rng));
      mutated.push_back(toV1(mutate(line, rng)));
    }
    corpus.push_back(joinLines(mutated));
  }
  return corpus;
}

TEST(BlockDecode, SeededMutationCorpusDecodesLikeTheSerialReference) {
  for (const std::string& text : seededMutationCorpus()) {
    expectEveryScheduleDecodesAlike(text);
  }
}

TEST(BlockDecode, SeededMutationCorpusSurvivesTheTraceVerbs) {
  // What `confail trace` does with a file: load it, then render, export,
  // run the detector battery and replay every monitor on the model.
  for (const std::string& text : seededMutationCorpus()) {
    std::istringstream in(text);
    Trace trace;
    const ingest::JsonlDecoder::Stats st = ingest::loadJsonlTrace(in, trace);
    const Decoded want = feedInChunks(text, ingest::kDecodeBlockBytes);
    EXPECT_EQ(st.events, want.stats.events);
    EXPECT_EQ(st.malformed, want.stats.malformed);
    EXPECT_EQ(st.truncated, want.stats.truncated);
    ASSERT_EQ(trace.events(), want.events);

    std::size_t lines = 0;
    trace.render([&lines](const std::string&) { ++lines; });
    EXPECT_EQ(lines, trace.size());
    EXPECT_FALSE(obs::toChromeTrace(trace).empty());
    (void)detect::DetectorSuite().analyzeEach(trace);
    std::set<confail::events::MonitorId> monitors;
    for (const Event& e : trace.events()) {
      if (e.monitor != confail::events::kNoMonitor) monitors.insert(e.monitor);
    }
    for (const confail::events::MonitorId m : monitors) {
      (void)confail::petri::validateTraceAgainstModel(trace, m);
    }
  }
}

TEST(BlockDecode, EmptyLinesLongLinesAndAnUnterminatedTail) {
  const std::vector<std::string> lines = exportedStreams().front();
  // A valid line longer than any block (an ignored key with a long
  // string), and garbage longer than a block.
  std::string longValid = lines[1];
  longValid.insert(longValid.find('"'),
                   "\"pad\": \"" +
                       std::string(ingest::kDecodeBlockBytes * 2 + 5, 'p') +
                       "\", ");
  const std::string longGarbage(ingest::kDecodeBlockBytes + 17, 'g');
  std::string text = "\n\n" + lines[0] + "\n\n\n" + longValid + '\n';
  for (std::size_t i = 2; i < lines.size(); ++i) {
    text += lines[i] + (i % 5 == 0 ? "\n\n" : "\n");
    if (i == lines.size() / 2) text += longGarbage + '\n' + longValid + '\n';
  }
  const Decoded whole = serialReference(text);
  EXPECT_EQ(whole.stats.malformed, 1u);
  expectEveryScheduleDecodesAlike(text);
  // Unterminated tails: one that parses, one torn mid-object, one longer
  // than a block.
  expectEveryScheduleDecodesAlike(text + lines.back());
  expectEveryScheduleDecodesAlike(text + lines.back().substr(0, 20));
  expectEveryScheduleDecodesAlike(text + longValid);
  EXPECT_EQ(serialReference(text + lines.back().substr(0, 20)).stats.truncated,
            1u);
}

// ---------------------------------------------------------------------------
// StreamingSuite differential
// ---------------------------------------------------------------------------

TEST(StreamingSuite, FindingsMatchOfflineBatteryOnEveryRegistryScenario) {
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    const Trace trace = captureScenario(sc);

    detect::DetectorSuite offline;
    const std::vector<detect::Finding> expected = offline.analyze(trace);

    detect::StreamingSuite streaming;
    for (const Event& e : trace.events()) streaming.feed(e);
    streaming.finish(detect::TraceNames(trace));
    const std::vector<detect::Finding> got = streaming.findings();

    ASSERT_EQ(got.size(), expected.size()) << sc.name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].kind, expected[i].kind) << sc.name;
      EXPECT_EQ(got[i].message, expected[i].message) << sc.name;
      EXPECT_EQ(got[i].thread, expected[i].thread) << sc.name;
      EXPECT_EQ(got[i].thread2, expected[i].thread2) << sc.name;
      EXPECT_EQ(got[i].monitor, expected[i].monitor) << sc.name;
      EXPECT_EQ(got[i].var, expected[i].var) << sc.name;
      EXPECT_EQ(got[i].seq, expected[i].seq) << sc.name;
    }
  }
}

// ---------------------------------------------------------------------------
// IngestPipeline differential
// ---------------------------------------------------------------------------

TEST(IngestPipeline, DifferentialOnEveryRegistryScenario) {
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    SCOPED_TRACE(sc.name);
    expectStreamingMatchesOffline(captureScenario(sc));
  }
}

TEST(IngestPipeline, DifferentialOnWorkerRecordedRuns) {
  // Runs recorded under parallel exploration (1/2/8 workers) stream the
  // same as single-run captures: the pipeline only sees the per-run trace.
  const scenarios::NamedScenario& sc = *scenarios::find("fig2");
  for (std::size_t workers : {1u, 2u, 8u}) {
    confail::sched::ExhaustiveExplorer::Options eo;
    eo.maxRuns = 12;
    eo.maxSteps = 2000;
    eo.maxBranchDepth = 3;
    eo.workers = workers;
    confail::inject::ExploreConfig cfg;
    cfg.scenario(sc).captureRuns().explorer(eo);
    std::vector<std::string> recorded;  // observer is serialized
    (void)cfg.explore([&](const confail::inject::RunView& v) {
      if (v.trace != nullptr && recorded.size() < 4) {
        recorded.push_back(obs::toJsonl(*v.trace));
      }
      return recorded.size() < 4;
    });
    ASSERT_FALSE(recorded.empty());
    for (const std::string& s : recorded) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      std::istringstream in(s);
      Trace trace;
      (void)ingest::loadJsonlTrace(in, trace);
      expectStreamingMatchesOffline(trace);
    }
  }
}

TEST(IngestPipeline, DifferentialOnFuzzerPrograms) {
  const std::uint64_t seeds = kSanitized ? 10 : 50;
  confail::gen::GenConfig cfg;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const confail::gen::Program p = confail::gen::generate(seed, cfg);
    const auto sc = confail::gen::asScenario(p, "gen_stream_test");
    expectStreamingMatchesOffline(captureScenario(sc));
  }
}

/// A synthetic stream of `iters` five-event rounds by three workers over
/// two monitors and two variables.
Trace syntheticTrace(int iters) {
  Trace trace;
  trace.nameMonitor(0, "shared");
  trace.nameMonitor(1, "other");
  trace.nameVar(0, "counter");
  trace.nameVar(1, "flag");
  for (int t = 0; t < 3; ++t) {
    trace.nameThread(static_cast<std::uint32_t>(t),
                     "worker" + std::to_string(t));
  }
  for (int i = 0; i < iters; ++i) {
    const auto thread = static_cast<std::uint32_t>(i % 3);
    const std::uint32_t mon = i % 2 == 0 ? 0 : 1;
    const std::uint64_t var = i % 2 == 0 ? 0 : 1;
    Event e;
    e.thread = thread;
    e.kind = EventKind::LockRequest;
    e.monitor = mon;
    trace.record(e);
    e.kind = EventKind::LockAcquire;
    trace.record(e);
    e.kind = EventKind::Write;
    e.monitor = confail::events::kNoMonitor;
    e.aux = var;
    trace.record(e);
    e.kind = EventKind::Read;
    trace.record(e);
    e.kind = EventKind::LockRelease;
    e.monitor = mon;
    e.aux = 0;
    trace.record(e);
  }
  return trace;
}

TEST(IngestPipeline, MultiMegabyteStreamThroughTinyRing) {
  // A synthetic multi-MB JSONL stream (far larger than the ring) must
  // stream loss-free through a deliberately tiny ring: backpressure, not
  // drops, and the differential still holds at scale.
  const Trace trace = syntheticTrace(kSanitized ? 2000 : 40000);
  const std::string jsonl = obs::toJsonl(trace);
  if (!kSanitized) {
    EXPECT_GT(jsonl.size(), 4u * 1024 * 1024) << "stream should be multi-MB";
  }
  ingest::IngestOptions opts;
  opts.ringCapacity = 256;
  expectStreamingMatchesOffline(trace, opts);
}

/// Helper decode threads a pipeline on this host starts for a long stream.
unsigned expectedHelpers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw) > 2 ? std::min(4u, hw) - 2 : 0;
}

TEST(IngestPipeline, StreamShorterThanABlockStartsNoHelper) {
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  const std::string jsonl = obs::toJsonl(trace);
  ASSERT_LT(jsonl.size(), ingest::kDecodeBlockBytes);
  obs::Registry metrics;
  ingest::IngestOptions opts;
  opts.metrics = &metrics;
  expectStreamingMatchesOffline(trace, opts);
  EXPECT_EQ(metrics.counter("ingest.blocks").value(), 1u);
  EXPECT_EQ(metrics.gauge("ingest.decode_threads").value(), 1.0);
  EXPECT_EQ(metrics.counter("ingest.events").value(), trace.size());
}

TEST(IngestPipeline, LongStreamDecodesOnHelpersAndCountsExactly) {
  const Trace trace = syntheticTrace(kSanitized ? 2000 : 10000);
  const std::string jsonl = obs::toJsonl(trace);
  ASSERT_GT(jsonl.size(), 4 * ingest::kDecodeBlockBytes);
  obs::Registry metrics;
  ingest::IngestOptions opts;
  opts.metrics = &metrics;
  expectStreamingMatchesOffline(trace, opts);
  EXPECT_GE(metrics.counter("ingest.blocks").value(),
            jsonl.size() / ingest::kDecodeBlockBytes);
  EXPECT_EQ(metrics.gauge("ingest.decode_threads").value(),
            1.0 + expectedHelpers());
  // Counted locally, published in batches: still exact at the end.
  EXPECT_EQ(metrics.counter("ingest.events").value(), trace.size());
}

// Thread ids off the wire can be anything: a line without "thread" decodes
// to kNoThread (0xffffffff) and a spawn may name any child id.  Such ids
// cost the happens-before clocks a side-table entry, not a clock sized to
// the id, and the findings still match the offline battery's.
TEST(IngestPipeline, HostileThreadIdsKeepClocksSmall) {
  Trace trace;
  trace.nameMonitor(0, "m");
  trace.nameVar(0, "v");
  const std::uint32_t farChild = 0xfffffffeu;
  const std::uint32_t farWriter = 4'000'000'000u;
  auto add = [&trace](EventKind k, std::uint32_t thread, std::uint32_t mon,
                      std::uint64_t aux) {
    Event e;
    e.kind = k;
    e.thread = thread;
    e.monitor = mon;
    e.aux = aux;
    trace.record(e);
  };
  const std::uint32_t noMon = confail::events::kNoMonitor;
  const std::uint32_t noThread = confail::events::kNoThread;
  add(EventKind::LockAcquire, noThread, 0, 0);
  add(EventKind::Write, noThread, noMon, 0);
  add(EventKind::LockRelease, noThread, 0, 0);
  add(EventKind::ThreadSpawn, 0, noMon, farChild);
  add(EventKind::LockAcquire, farChild, 0, 0);
  add(EventKind::Read, farChild, noMon, 0);
  add(EventKind::LockRelease, farChild, 0, 0);
  add(EventKind::Write, farWriter, noMon, 0);
  add(EventKind::Read, 0, noMon, 0);
  add(EventKind::Write, 5000, noMon, 0);
  add(EventKind::Read, noThread, noMon, 0);
  const std::string jsonl = obs::toJsonl(trace);
  ASSERT_EQ(jsonl.find("\"thread\": 4294967295"), std::string::npos);
  expectStreamingMatchesOffline(trace);
}

TEST(IngestPipeline, FollowModeTailsARacingWriter) {
  // Regression for tailing a file under active append: the writer emits
  // the stream in small chunks that tear lines mid-object, racing the
  // reader; the reader must wait out partial writes and still reproduce
  // the offline findings exactly.
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  const std::string jsonl = obs::toJsonl(trace);
  const std::string path =
      ::testing::TempDir() + "/confail_ingest_follow.jsonl";
  {
    std::ofstream create(path, std::ios::trunc);
    ASSERT_TRUE(create.good());
  }

  std::thread writer([&] {
    std::ofstream out(path, std::ios::app);
    // 13-byte chunks guarantee most lines land torn across writes.
    for (std::size_t i = 0; i < jsonl.size(); i += 13) {
      out.write(jsonl.data() + i,
                static_cast<std::streamsize>(
                    std::min<std::size_t>(13, jsonl.size() - i)));
      out.flush();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  ingest::IngestOptions opts;
  opts.follow = true;
  opts.followIdleStopMs = 500;
  ingest::IngestPipeline pipe(opts);
  detect::ReportSink online;
  online.setSource("differential");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const ingest::IngestStats st = pipe.run(in, online);
  writer.join();

  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(st.malformed, 0u);
  ASSERT_EQ(st.eventsAnalyzed, trace.size());
  const detect::ReportSink offline = offlineSink(trace);
  EXPECT_EQ(offline.toJson(detect::TraceNames(trace)),
            online.toJson(pipe.names()));
  std::remove(path.c_str());
}

TEST(IngestPipeline, FollowModeTailsAWriterAcrossBlockBoundaries) {
  // A stream several blocks long, appended in uneven writes that tear
  // lines and straddle block boundaries while helpers decode.
  const Trace trace = syntheticTrace(kSanitized ? 1000 : 4000);
  const std::string jsonl = obs::toJsonl(trace);
  ASSERT_GT(jsonl.size(), 3 * ingest::kDecodeBlockBytes);
  const std::string path =
      ::testing::TempDir() + "/confail_ingest_follow_blocks.jsonl";
  {
    std::ofstream create(path, std::ios::trunc);
    ASSERT_TRUE(create.good());
  }
  std::thread writer([&] {
    std::ofstream out(path, std::ios::app);
    confail::SplitMix64 rng(7);
    for (std::size_t i = 0; i < jsonl.size();) {
      const std::size_t n = std::min<std::size_t>(
          1 + rng.next() % (ingest::kDecodeBlockBytes / 2), jsonl.size() - i);
      out.write(jsonl.data() + i, static_cast<std::streamsize>(n));
      out.flush();
      i += n;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  ingest::IngestOptions opts;
  opts.follow = true;
  opts.followIdleStopMs = 500;
  ingest::IngestPipeline pipe(opts);
  detect::ReportSink online;
  online.setSource("differential");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const ingest::IngestStats st = pipe.run(in, online);
  writer.join();

  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(st.malformed, 0u);
  EXPECT_EQ(st.bytes, jsonl.size());
  ASSERT_EQ(st.eventsAnalyzed, trace.size());
  const detect::ReportSink offline = offlineSink(trace);
  EXPECT_EQ(offline.toJson(detect::TraceNames(trace)),
            online.toJson(pipe.names()));
  std::remove(path.c_str());
}

TEST(IngestPipeline, RequestStopMidStreamEndsTheRun) {
  // Follow with no idle stop: only requestStop() ends the run.  The first
  // part of the stream is written and consumed, the run is stopped while
  // idle, and the rest is written after the stop and never read.
  const Trace trace = syntheticTrace(kSanitized ? 1000 : 4000);
  const std::string jsonl = obs::toJsonl(trace);
  const std::size_t half =
      ingest::wholeLinesPrefix(jsonl, jsonl.size() / 2);
  const auto firstEvents = static_cast<std::uint64_t>(
      std::count(jsonl.begin(), jsonl.begin() + static_cast<long>(half),
                 '\n'));
  const std::string path =
      ::testing::TempDir() + "/confail_ingest_follow_stop.jsonl";
  {
    std::ofstream create(path, std::ios::trunc);
    create << jsonl.substr(0, half);
    ASSERT_TRUE(create.good());
  }

  ingest::IngestOptions opts;
  opts.follow = true;
  opts.followIdleStopMs = 0;
  ingest::IngestPipeline pipe(opts);
  detect::ReportSink online;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  ingest::IngestStats st;
  std::thread runner([&] { st = pipe.run(in, online); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  pipe.requestStop();
  runner.join();
  {
    std::ofstream out(path, std::ios::app);
    out << jsonl.substr(half);
  }

  EXPECT_EQ(st.bytes, half);
  EXPECT_EQ(st.truncated, 0u);
  EXPECT_EQ(st.malformed, 0u);
  EXPECT_EQ(st.eventsDecoded, firstEvents);
  EXPECT_EQ(st.eventsAnalyzed + st.ringDrops, firstEvents);
  std::remove(path.c_str());
}

TEST(IngestPipeline, ChromeTraceDecodesToAnalyzableEvents) {
  // Chrome decode is best-effort (the exporter drops information), but a
  // round trip must produce a non-trivial, battery-consumable stream.
  const Trace trace = captureScenario(*scenarios::find("fig2"));
  ingest::IngestOptions opts;
  opts.format = ingest::StreamFormat::Chrome;
  ingest::IngestPipeline pipe(opts);
  detect::ReportSink sink;
  std::istringstream in(obs::toChromeTrace(trace));
  const ingest::IngestStats st = pipe.run(in, sink);
  EXPECT_GT(st.eventsAnalyzed, trace.size() / 2);
  EXPECT_EQ(st.ringDrops, 0u);
  // Thread names survive via the metadata records.
  EXPECT_EQ(pipe.names().threadName(0), trace.threadName(0));
}

TEST(ChromeDecode, SeededMutationsDecodeOrAreRejected) {
  // The JSONL mutation operators, each applied to one line of a Chrome
  // document: every mutant decodes or is rejected without crashing, and
  // every document the DOM rejects is rejected whole.
  confail::SplitMix64 rng(2003);
  std::size_t rejected = 0;
  std::size_t decoded = 0;
  for (const scenarios::NamedScenario& sc : scenarios::registry()) {
    const std::string doc = obs::toChromeTrace(captureScenario(sc));
    std::vector<std::string> lines;
    std::istringstream split(doc);
    for (std::string l; std::getline(split, l);) lines.push_back(l);
    for (int k = 0; k < (kSanitized ? 10 : 40); ++k) {
      std::vector<std::string> mutated = lines;
      std::string& line = mutated[rng.next() % mutated.size()];
      line = mutate(line, rng);
      const std::string text = joinLines(mutated);
      SCOPED_TRACE(sc.name + ": " + line);
      bool domAccepts = true;
      try {
        (void)obs::parseJson(text);
      } catch (const confail::UsageError&) {
        domAccepts = false;
      }
      ingest::NameTable names;
      std::vector<Event> out;
      const std::uint64_t unmapped =
          ingest::decodeChromeTrace(text, names, out);
      if (!domAccepts) {
        EXPECT_EQ(unmapped, 1u);
        EXPECT_TRUE(out.empty());
        ++rejected;
      } else {
        ++decoded;
      }
    }
  }
  // Both outcomes must have been exercised.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

// ---------------------------------------------------------------------------
// ReportSink
// ---------------------------------------------------------------------------

detect::Finding makeFinding(detect::FindingKind kind, const char* msg) {
  detect::Finding f;
  f.kind = kind;
  f.message = msg;
  f.thread = 0;
  f.monitor = 1;
  f.seq = 7;
  return f;
}

TEST(ReportSink, CapCountsOverflowInsteadOfGrowing) {
  detect::ReportSink sink(2);
  EXPECT_TRUE(sink.add("d", makeFinding(detect::FindingKind::DataRace, "a")));
  EXPECT_TRUE(sink.add("d", makeFinding(detect::FindingKind::DataRace, "b")));
  EXPECT_FALSE(sink.add("d", makeFinding(detect::FindingKind::DataRace, "c")));
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  ingest::NameTable names;
  EXPECT_NE(sink.toJson(names).find("\"dropped\": 1"), std::string::npos);
}

TEST(ReportSink, SarifLevelsSplitFailuresFromEfficiencies) {
  EXPECT_STREQ(detect::sarifLevel(detect::FindingKind::DataRace), "error");
  EXPECT_STREQ(detect::sarifLevel(detect::FindingKind::DeadlockCycle),
               "error");
  EXPECT_STREQ(detect::sarifLevel(detect::FindingKind::WaitingForever),
               "error");
  EXPECT_STREQ(detect::sarifLevel(detect::FindingKind::UnnecessarySync),
               "warning");
  EXPECT_STREQ(detect::sarifLevel(detect::FindingKind::BargingAcquire),
               "warning");
}

TEST(ReportSink, SarifDocumentIsStructurallyValid) {
  const Trace trace = captureScenario(*scenarios::find("lock_order"));
  const detect::ReportSink sink = offlineSink(trace);
  ASSERT_GT(sink.size(), 0u);  // the deadlock scenario must yield findings

  const obs::JsonValue doc =
      obs::parseJson(sink.toSarif(detect::TraceNames(trace)));
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.get("version")->string, "2.1.0");
  const obs::JsonValue* runs = doc.get("runs");
  ASSERT_TRUE(runs != nullptr && runs->isArray());
  ASSERT_EQ(runs->array.size(), 1u);
  const obs::JsonValue& run = runs->array[0];
  EXPECT_EQ(run.get("tool")->get("driver")->get("name")->string, "confail");

  const obs::JsonValue* rules = run.get("tool")->get("driver")->get("rules");
  ASSERT_TRUE(rules != nullptr && rules->isArray());
  EXPECT_FALSE(rules->array.empty());
  std::vector<std::string> ruleIds;
  for (const obs::JsonValue& rule : rules->array) {
    ruleIds.push_back(rule.get("id")->string);
  }
  const obs::JsonValue* results = run.get("results");
  ASSERT_TRUE(results != nullptr && results->isArray());
  EXPECT_EQ(results->array.size(), sink.size());
  for (const obs::JsonValue& r : results->array) {
    EXPECT_NE(std::find(ruleIds.begin(), ruleIds.end(),
                        r.get("ruleId")->string),
              ruleIds.end());
    EXPECT_FALSE(r.get("message")->get("text")->string.empty());
  }
}

TEST(ReportSink, CampaignRoutesFindingsThroughSink) {
  const scenarios::NamedScenario& sc = *scenarios::find("fig2");
  confail::sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 200;
  eo.maxSteps = 2000;
  eo.maxBranchDepth = 3;
  detect::ReportSink sink;
  sink.setSource("campaign");
  const auto plan = confail::inject::defaultPlanFor(
      confail::taxonomy::FailureClass::FF_T5, sc);
  const auto cell = confail::inject::runCell(sc, plan, eo, &sink);
  EXPECT_TRUE(cell.caught);
  ASSERT_GT(sink.size(), 0u);
  bool sawWaitNotify = false;
  for (const auto& entry : sink.entries()) {
    if (entry.detector == "wait-notify") sawWaitNotify = true;
  }
  EXPECT_TRUE(sawWaitNotify);
}

// ---------------------------------------------------------------------------
// Bounded happens-before history (the memory-bound knob)
// ---------------------------------------------------------------------------

TEST(StreamingSuite, BoundedHbHistoryCountsEvictions) {
  const int vars = 64;
  Trace trace;
  for (int v = 0; v < vars; ++v) {
    Event e;
    e.thread = 0;
    e.kind = EventKind::Write;
    e.aux = static_cast<std::uint64_t>(v);
    trace.record(e);
  }
  detect::StreamingSuite::Options opts;
  opts.hbMaxVarHistory = 8;
  detect::StreamingSuite suite(opts);
  for (const Event& e : trace.events()) suite.feed(e);
  suite.finish(detect::TraceNames(trace));
  EXPECT_GT(suite.hbEvictions(), 0u);

  detect::StreamingSuite exact;
  for (const Event& e : trace.events()) exact.feed(e);
  exact.finish(detect::TraceNames(trace));
  EXPECT_EQ(exact.hbEvictions(), 0u);
}

}  // namespace
