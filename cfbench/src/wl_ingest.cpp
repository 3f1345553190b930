// ingest_jsonl: one long seeded JSONL stream through IngestPipeline, where
// `ingest` decode and the eight `detect` cores do the work.  Its traced
// batches and its own file report the ingest/detect/obs layers.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/protocol_deviation.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/streaming_suite.hpp"
#include "confail/detect/suite.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/ingest/ring.hpp"
#include "confail/obs/metrics.hpp"
#include "stream_gen.hpp"

namespace cfbench {

namespace detect = confail::detect;
namespace events = confail::events;
namespace ingest = confail::ingest;

namespace {

/// 1M events (about 157 MB): long enough that every core works, short
/// enough for several batches per run, whose median steadies the figure.
constexpr std::size_t kEvents = 1'000'000;
constexpr std::size_t kReferenceEvents = 200'000;
/// The reference stream is drawn from a different stream of the same
/// generator, so a seed never yields the workload's exact stream.
constexpr std::uint64_t kReferenceStreamTag = 0x9e3779b97f4a7c15ull;
/// The isolation probes read the stream in chunks of this size.
constexpr std::size_t kChunkBytes = 8u << 20;
/// Events the ring alone carries.
constexpr std::size_t kRingEvents = 1'000'000;
constexpr const char* kSource = "ingest_jsonl";

std::vector<std::string> findingKeys(const detect::ReportSink& sink,
                                     const detect::NameSource& names) {
  std::vector<std::string> keys;
  for (const detect::ReportSink::Entry& e : sink.entries()) {
    keys.push_back(findingKey(e.detector, e.finding, names));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string compareKeys(const std::vector<std::string>& got,
                        const std::vector<std::string>& want) {
  if (got == want) return "";
  std::string diff;
  for (const std::string& k : want) {
    if (!std::binary_search(got.begin(), got.end(), k)) diff += " missing " + k;
  }
  for (const std::string& k : got) {
    if (!std::binary_search(want.begin(), want.end(), k)) {
      diff += " unexpected " + k;
    }
  }
  return "findings differ from the planted defects:" +
         (diff.empty() ? std::string(" (duplicates)") : diff);
}

/// Render the stream into `jsonl`, reusing its buffer.
void renderJsonl(const GeneratedStream& g, std::string& jsonl) {
  jsonl.clear();
  jsonl.reserve(g.events.size() * 170);  // about 157 bytes a line
  for (const events::Event& e : g.events) appendJsonlLine(g, e, jsonl);
}

/// One StreamCore per battery slot, constructed as StreamingSuite does.
std::vector<std::pair<std::string, std::unique_ptr<detect::StreamCore>>>
makeCores() {
  std::vector<std::pair<std::string, std::unique_ptr<detect::StreamCore>>> c;
  c.emplace_back("lockset", std::make_unique<detect::LocksetCore>());
  c.emplace_back("hb", std::make_unique<detect::HbCore>());
  c.emplace_back("lock_graph", std::make_unique<detect::LockOrderCore>());
  c.emplace_back("wait_notify", std::make_unique<detect::WaitNotifyCore>());
  c.emplace_back("starvation", std::make_unique<detect::StarvationCore>(50));
  c.emplace_back("unnecessary_sync",
                 std::make_unique<detect::UnnecessarySyncCore>());
  c.emplace_back("release_discipline",
                 std::make_unique<detect::ReleaseDisciplineCore>());
  c.emplace_back("protocol_deviation",
                 std::make_unique<detect::ProtocolDeviationCore>());
  return c;
}

/// Each side of the pipeline alone over one JSONL stream, chunk by chunk:
/// JsonlDecoder::feed, StreamingSuite::feed over the decoded events, and
/// each StreamCore fed alone; then the SpscRing alone over the first
/// chunk's events.  Returns decode + battery seconds.
double isolateLayers(std::istream& in, Tracer& tr, Metrics& out) {
  ingest::JsonlDecoder dec;
  detect::StreamingSuite suite;
  auto cores = makeCores();
  std::vector<std::vector<detect::Finding>> found(cores.size());
  std::vector<double> coreSec(cores.size(), 0.0);
  std::vector<events::Event> chunk, ringSample;
  double decodeSec = 0.0, feedSec = 0.0;
  std::uint64_t bytes = 0, n = 0;
  auto emit = [&chunk](const events::Event& e) { chunk.push_back(e); };
  auto analyze = [&] {
    {
      Tracer::Scope span(&tr, "detect.suite.feed");
      const auto t0 = Clock::now();
      for (const events::Event& e : chunk) suite.feed(e);
      feedSec += secondsSince(t0);
    }
    for (std::size_t k = 0; k < cores.size(); ++k) {
      Tracer::Scope span(&tr, "detect." + cores[k].first + ".feed");
      const auto t0 = Clock::now();
      for (const events::Event& e : chunk) cores[k].second->feed(e, found[k]);
      coreSec[k] += secondsSince(t0);
    }
    n += chunk.size();
    if (ringSample.empty()) ringSample.swap(chunk);
    chunk.clear();
  };

  std::string buf(kChunkBytes, '\0');
  for (;;) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    bytes += got;
    {
      Tracer::Scope span(&tr, "ingest.decode");
      const auto t0 = Clock::now();
      dec.feed(std::string_view(buf.data(), got), emit);
      decodeSec += secondsSince(t0);
    }
    analyze();
  }
  {
    Tracer::Scope span(&tr, "ingest.decode");
    const auto t0 = Clock::now();
    dec.flush(emit);
    decodeSec += secondsSince(t0);
  }
  analyze();
  {
    Tracer::Scope span(&tr, "detect.suite.finish");
    const auto t0 = Clock::now();
    suite.finish(dec.names());
    feedSec += secondsSince(t0);
  }
  for (std::size_t k = 0; k < cores.size(); ++k) {
    const auto t0 = Clock::now();
    cores[k].second->finish(dec.names(), found[k]);
    coreSec[k] += secondsSince(t0);
  }
  if (n == 0) throw std::runtime_error("isolation probe decoded no events");

  const double events = static_cast<double>(n);
  out.set("ingest.decode_s", decodeSec, "s", n);
  out.set("ingest.decode_mb_per_sec",
          static_cast<double>(bytes) / decodeSec / 1e6, "MB/s", n);
  out.set("ingest.bytes_per_event", static_cast<double>(bytes) / events, "B",
          n);
  out.set("detect.suite_feed_s", feedSec, "s", n);
  out.set("detect.findings", static_cast<double>(suite.findings().size()),
          "count");
  for (std::size_t k = 0; k < cores.size(); ++k) {
    out.set("detect." + cores[k].first + ".feed_ns_per_event",
            coreSec[k] * 1e9 / events, "ns", n);
  }

  Tracer::Scope span(&tr, "ingest.ring");
  ingest::SpscRing<events::Event> ring(1 << 16);
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (std::size_t i = 0; i < kRingEvents; ++i) {
      while (!ring.tryPush(ringSample[i % ringSample.size()])) {
        std::this_thread::yield();
      }
    }
  });
  std::size_t popped = 0;
  events::Event e;
  while (popped < kRingEvents) {
    if (ring.tryPop(e)) ++popped;
  }
  producer.join();
  out.set("ingest.ring_events_per_sec",
          static_cast<double>(kRingEvents) / secondsSince(t0), "1/s",
          kRingEvents);
  return decodeSec + feedSec;
}

/// The pipeline-level figures: `offSec`/`onSec` are pipeline run times with
/// IngestOptions::metrics unset / set, `verdictSec` the batch time.
void setPipelineMetrics(double events, const std::vector<double>& offSec,
                        const std::vector<double>& onSec, double isolatedSec,
                        double verdictSec, Metrics& out) {
  const double off = median(offSec);
  out.set("ingest.pipeline_events_per_sec", events / off, "1/s",
          offSec.size());
  out.set("ingest.overlap", isolatedSec / verdictSec, "ratio");
  out.set("obs.metrics_overhead_pct", (median(onSec) / off - 1.0) * 100.0,
          "%", onSec.size());
}

class IngestWorkload final : public Workload {
 public:
  const char* name() const override { return "ingest_jsonl"; }

  void setup(const Ctx& ctx) override {
    // Buffers are reused from one set-up to the next, so setup_s times
    // the generation rather than the kernel handing out fresh pages.
    generateStream(ctx.seed, kEvents, stream_);
    const std::string fmt = crossCheckFormat(stream_, 4096);
    if (!fmt.empty()) throw std::runtime_error(fmt);
    renderJsonl(stream_, jsonl_);
    events_ = stream_.events.size();
    expected_ = expectedFindingKeys(stream_);
  }

  void stage(const Ctx& ctx) override {
    path_ = ctx.workDir + "/ingest_jsonl.jsonl";
    bytes_ = jsonl_.size();
    std::ofstream f(path_, std::ios::binary);
    f.write(jsonl_.data(), static_cast<std::streamsize>(jsonl_.size()));
    if (!f.flush()) throw std::runtime_error("cannot write " + path_);
    std::string().swap(jsonl_);
    stream_ = GeneratedStream{};
  }

  /// Flush the file to disk outside the timed phase.  A no-op once clean.
  void prepareRep(const Ctx&) override {
    const int fd = ::open(path_.c_str(), O_RDONLY);
    const bool flushed = fd >= 0 && ::fdatasync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!flushed) throw std::runtime_error("cannot flush " + path_);
  }

  RepOutcome rep(Tracer* tr) override {
    // A traced batch attaches the registry: the metrics tax is part of
    // what tracing costs here.
    ingest::IngestOptions opts;
    if (tr != nullptr) {
      reg_ = std::make_unique<confail::obs::Registry>();
      opts.metrics = reg_.get();
    }
    ingest::IngestPipeline pipe(opts);
    detect::ReportSink sink;
    sink.setSource(kSource);
    std::ifstream in(path_, std::ios::binary);
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tr, "ingest.pipeline.run");
      stats_ = pipe.run(in, sink);
    }
    (tr != nullptr ? pipeOnSec_ : pipeOffSec_).push_back(secondsSince(t0));
    {
      Tracer::Scope span(tr, "detect.report.render");
      document_ = sink.toJson(pipe.names());
    }
    RepOutcome r;
    r.seconds = secondsSince(t0);
    keys_ = findingKeys(sink, pipe.names());
    r.attempted = events_;
    r.failed = stats_.ringDrops + stats_.malformed + stats_.truncated +
               (events_ - std::min<std::uint64_t>(events_, stats_.eventsAnalyzed));
    return r;
  }

  std::string check() const override { return checkKeys(keys_); }

  std::string checkCorrupted() const override {
    // Remove one planted defect from the output.
    std::vector<std::string> bad = keys_;
    auto it = std::find_if(bad.begin(), bad.end(), [](const std::string& k) {
      return k.rfind("release-discipline|", 0) == 0;
    });
    if (it != bad.end()) bad.erase(it);
    return checkKeys(bad);
  }

  void reportExtras(double verdictSeconds, std::size_t reps,
                    Metrics& out) const override {
    out.set("ingest.events_per_sec",
            static_cast<double>(events_) / verdictSeconds, "1/s", reps);
    out.set("ingest.stream_mb", static_cast<double>(bytes_) / 1e6, "MB");
    out.set("ingest.stream_events", static_cast<double>(events_), "count");
  }

  void layers(const Ctx& ctx, Tracer& tr, double plainSec,
              Metrics& out) override {
    tr.newRun("probe.ingest.isolated");
    std::ifstream in(path_, std::ios::binary);
    const double isolated = isolateLayers(in, tr, out);
    setPipelineMetrics(static_cast<double>(events_), pipeOffSec_, pipeOnSec_,
                       isolated, plainSec, out);
    tr.attach("ingest_registry", reg_->snapshot().toJson());

    // Streaming == offline: the last batch's findings document against
    // DetectorSuite on the same events as a trace.
    tr.newRun("probe.detect.offline");
    events::Trace trace;
    fillTrace(generateStream(ctx.seed, kEvents), trace);
    detect::ReportSink offline;
    offline.setSource(kSource);
    {
      Tracer::Scope span(&tr, "detect.offline.analyze");
      detect::DetectorSuite battery;
      for (const auto& report : battery.analyzeEach(trace)) {
        offline.addAll(report.detector, report.findings);
      }
    }
    if (offline.toJson(detect::TraceNames(trace)) != document_) {
      throw std::runtime_error(
          "streaming findings document differs from offline DetectorSuite");
    }
  }

  void reference(const Ctx& ctx, Tracer& tr, Metrics& out) override {
    const GeneratedStream g =
        generateStream(ctx.seed ^ kReferenceStreamTag, kReferenceEvents);
    std::string jsonl;
    renderJsonl(g, jsonl);
    tr.newRun("reference.ingest.isolated");
    std::istringstream in(jsonl);
    const double isolated = isolateLayers(in, tr, out);

    // The pipeline over the in-memory stream, metrics off and on,
    // alternating.
    tr.newRun("reference.ingest.pipeline");
    std::vector<double> off, on;
    for (int i = 0; i < 3; ++i) {
      for (bool metrics : {false, true}) {
        confail::obs::Registry reg;
        ingest::IngestOptions opts;
        if (metrics) opts.metrics = &reg;
        ingest::IngestPipeline pipe(opts);
        detect::ReportSink sink;
        std::istringstream stream(jsonl);
        Tracer::Scope span(&tr, "ingest.pipeline.run");
        const auto t0 = Clock::now();
        const ingest::IngestStats st = pipe.run(stream, sink);
        (metrics ? on : off).push_back(secondsSince(t0));
        if (st.eventsAnalyzed != g.events.size()) {
          throw std::runtime_error("reference pipeline lost events");
        }
      }
    }
    setPipelineMetrics(static_cast<double>(g.events.size()), off, on,
                       isolated, median(off), out);
  }

  std::string provenance() const override {
    return "\"ingest_events\": " + std::to_string(events_) +
           ", \"ingest_bytes\": " + std::to_string(bytes_) +
           ", \"ingest_ring_capacity\": " +
           std::to_string(ingest::IngestOptions{}.ringCapacity);
  }

 private:
  std::string checkKeys(const std::vector<std::string>& keys) const {
    if (stats_.eventsAnalyzed != events_) {
      return "analyzed " + std::to_string(stats_.eventsAnalyzed) + " of " +
             std::to_string(events_) + " events";
    }
    if (stats_.ringDrops + stats_.malformed + stats_.truncated != 0) {
      return "events dropped, malformed or truncated";
    }
    if (document_.empty()) return "no findings document";
    return compareKeys(keys, expected_);
  }

  GeneratedStream stream_;  ///< the generated stream, until stage()
  std::string jsonl_;       ///< the rendered stream, until stage() writes it
  std::string path_;
  std::uint64_t bytes_ = 0;
  std::uint64_t events_ = 0;
  std::vector<std::string> expected_;
  ingest::IngestStats stats_;
  std::vector<std::string> keys_;
  std::string document_;
  std::unique_ptr<confail::obs::Registry> reg_;  ///< the last traced batch's
  std::vector<double> pipeOffSec_, pipeOnSec_;   ///< pipeline run times
};

}  // namespace

std::unique_ptr<Workload> makeIngestWorkload() {
  return std::make_unique<IngestWorkload>();
}

}  // namespace cfbench
