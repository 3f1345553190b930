#include "confail/ingest/pipeline.hpp"

#include <chrono>
#include <istream>
#include <sstream>
#include <thread>

#include "confail/ingest/ring.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::ingest {

namespace {
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kOccupancySampleEvery = 1024;
}  // namespace

IngestPipeline::IngestPipeline(IngestOptions opts)
    : opts_(opts), suite_(opts.suite) {
  suite_.setMetrics(opts_.metrics);
}

IngestPipeline::~IngestPipeline() = default;

IngestStats IngestPipeline::run(std::istream& in, detect::ReportSink& sink) {
  IngestStats stats;
  SpscRing<events::Event> ring(opts_.ringCapacity);
  std::atomic<bool> producerDone{false};

  const auto t0 = std::chrono::steady_clock::now();

  auto push = [&](const events::Event& e) {
    if (opts_.lossy) {
      ring.pushOrDrop(e);
      return;
    }
    // Backpressure: spin-yield until the consumer frees a slot.  A stop
    // request drains the remaining events as drops so the reader can exit.
    while (!ring.tryPush(e)) {
      if (stop_.load(std::memory_order_relaxed)) {
        ring.pushOrDrop(e);
        return;
      }
      std::this_thread::yield();
    }
  };

  std::thread producer([&] {
    if (opts_.format == StreamFormat::Chrome) {
      // Chrome documents are one JSON object, not a line stream: slurp,
      // decode, replay through the ring.
      std::ostringstream buf;
      buf << in.rdbuf();
      std::vector<events::Event> evs;
      stats.chromeUnmapped =
          decodeChromeTrace(buf.str(), decoder_.names(), evs);
      stats.bytes = buf.str().size();
      stats.eventsDecoded = evs.size();
      for (const events::Event& e : evs) {
        if (stop_.load(std::memory_order_relaxed)) break;
        push(e);
      }
      producerDone.store(true, std::memory_order_release);
      return;
    }
    char chunk[kChunkBytes];
    auto emit = [&](const events::Event& e) { push(e); };
    using clock = std::chrono::steady_clock;
    clock::time_point lastData = clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      in.read(chunk, static_cast<std::streamsize>(sizeof chunk));
      const std::streamsize got = in.gcount();
      if (got > 0) {
        decoder_.feed(std::string_view(chunk, static_cast<std::size_t>(got)),
                      emit);
        lastData = clock::now();
      }
      if (in.eof()) {
        if (!opts_.follow) break;
        if (opts_.followIdleStopMs != 0 &&
            clock::now() - lastData >=
                std::chrono::milliseconds(opts_.followIdleStopMs)) {
          break;
        }
        // Tail: clear the EOF condition and poll for appended bytes.
        in.clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      } else if (in.fail()) {
        break;  // unrecoverable stream error
      }
    }
    decoder_.flush(emit);
    producerDone.store(true, std::memory_order_release);
  });

  // Consumer: this thread drives the incremental battery.
  obs::Counter* eventsCtr =
      opts_.metrics != nullptr ? &opts_.metrics->counter("ingest.events")
                               : nullptr;
  obs::Gauge* occupancy =
      opts_.metrics != nullptr
          ? &opts_.metrics->gauge("ingest.ring_occupancy")
          : nullptr;
  events::Event e;
  std::uint64_t analyzed = 0;
  for (;;) {
    if (ring.tryPop(e)) {
      suite_.feed(e);
      ++analyzed;
      if (eventsCtr != nullptr) {
        eventsCtr->inc();
        if (occupancy != nullptr && analyzed % kOccupancySampleEvery == 0) {
          occupancy->set(static_cast<double>(ring.approxSize()));
        }
      }
      continue;
    }
    if (producerDone.load(std::memory_order_acquire)) {
      // Drain whatever landed between the last pop and the flag.
      if (ring.tryPop(e)) {
        suite_.feed(e);
        ++analyzed;
        continue;
      }
      break;
    }
    std::this_thread::yield();
  }
  producer.join();

  suite_.finish(decoder_.names());
  for (const detect::StreamingSuite::Report& r : suite_.reports()) {
    sink.addAll(r.detector, r.findings);
  }

  const auto t1 = std::chrono::steady_clock::now();
  const JsonlDecoder::Stats& ds = decoder_.stats();
  if (opts_.format == StreamFormat::Jsonl) {
    stats.bytes = ds.bytes;
    stats.eventsDecoded = ds.events;
  }
  stats.lines = ds.lines;
  stats.malformed = ds.malformed;
  stats.truncated = ds.truncated;
  stats.eventsAnalyzed = analyzed;
  stats.ringDrops = ring.drops();
  stats.findings = sink.size() + sink.dropped();
  stats.hbEvictions = suite_.hbEvictions();
  stats.elapsedSec =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  stats.eventsPerSec = stats.elapsedSec > 0.0
                           ? static_cast<double>(analyzed) / stats.elapsedSec
                           : 0.0;
  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("ingest.ring_drops").add(stats.ringDrops);
    opts_.metrics->counter("ingest.malformed_lines").add(stats.malformed);
    opts_.metrics->counter("ingest.truncated_tails").add(stats.truncated);
    opts_.metrics->gauge("ingest.events_per_sec").set(stats.eventsPerSec);
  }
  return stats;
}

}  // namespace confail::ingest
