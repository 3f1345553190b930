// IngestPipeline: the online trace-analysis path.
//
//   reader thread                                     caller thread
//   ─────────────                                     ─────────────
//   read ─▶ block slots (8 × 32 KB of whole lines)
//             │        ▲
//             ▼        │ decodeBlock
//           helper threads (and the reader)
//             │
//   commit in order ─ push ─▶ SpscRing ─▶ pop ─ StreamingSuite::feed
//   (names, deferred lines)                          │
//                                          finish ─▶ ReportSink
//
// The producer side reads the stream (file, pipe, or a file still being
// appended to when `follow` is set) straight into a fixed ring of 8 block
// slots, each holding up to kDecodeBlockBytes of whole lines.  Helper
// threads decode published blocks with decodeBlock(), which touches no
// name table; the reader decodes blocks itself whenever it would otherwise
// wait, and commits decoded blocks strictly in stream order through
// JsonlDecoder::commit(), which registers names and emits events exactly
// as the serial decoder would.  Committed events go through a
// fixed-capacity lock-free ring to the consumer — the thread that called
// run() — which drives the incremental detector battery.
//
// A pipeline runs at most min(4, hardware_concurrency) threads: the
// consumer, the reader and up to two helpers.  Helpers start only once a
// second block exists, so a stream of at most one block starts none, and
// idle helpers (a quiet `follow` stream) sleep on a condition variable.
// A line longer than a block and the unterminated tail at the end go
// through JsonlDecoder::feed/flush on the reader.  Memory is bounded by
// the event ring, the 8 block slots and detector state.
//
// Overflow policy: by default a full ring applies backpressure (the
// producer yields until the consumer catches up — no events lost, so the
// streaming findings match the offline battery exactly).  With `lossy`
// set, overflow drops the event and counts it in ringDrops — bounded cost
// for live monitoring where falling behind must not stall the writer.
//
// Name tables are owned by the producer-side decoder, written only by the
// reader's commits and read after the producer joins
// (StreamingSuite::finish and report rendering), so no synchronization is
// needed on them.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "confail/detect/report_sink.hpp"
#include "confail/detect/streaming_suite.hpp"
#include "confail/ingest/decode.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::ingest {

enum class StreamFormat : std::uint8_t {
  Jsonl,   ///< obs::toJsonl lines (lossless since v2)
  Chrome,  ///< obs::toChromeTrace document (best-effort reconstruction)
};

struct IngestOptions {
  StreamFormat format = StreamFormat::Jsonl;
  /// Ring capacity in events (rounded up to a power of two).
  std::size_t ringCapacity = 1 << 16;
  /// Drop events on ring overflow instead of backpressuring the reader.
  bool lossy = false;
  /// Keep reading past EOF (tail a growing file / slow pipe).
  bool follow = false;
  /// In follow mode, stop after this long with no new bytes (0 = only a
  /// requestStop() ends the run).
  std::uint32_t followIdleStopMs = 1000;
  /// Detector battery configuration (thresholds, barging, HB bound).
  detect::StreamingSuite::Options suite;
  /// Optional metrics registry (events/sec, ring occupancy, drops, decode
  /// blocks and threads, per-core feed latency; see docs/observability.md).
  obs::Registry* metrics = nullptr;
};

struct IngestStats {
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  std::uint64_t eventsDecoded = 0;
  std::uint64_t eventsAnalyzed = 0;
  std::uint64_t ringDrops = 0;
  std::uint64_t malformed = 0;
  std::uint64_t truncated = 0;
  std::uint64_t chromeUnmapped = 0;
  std::uint64_t findings = 0;
  std::uint64_t hbEvictions = 0;
  double elapsedSec = 0.0;
  double eventsPerSec = 0.0;
};

class IngestPipeline {
 public:
  explicit IngestPipeline(IngestOptions opts);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Consume `in` to completion (or until requestStop() in follow mode),
  /// run the streaming battery, and route every finding into `sink`
  /// (attributed per core, battery order).  Call once per pipeline.
  IngestStats run(std::istream& in, detect::ReportSink& sink);

  /// Async stop for follow mode; safe from any thread.
  void requestStop() { stop_.store(true, std::memory_order_relaxed); }

  /// Valid after run(): the rebuilt name tables and the finished suite.
  const NameTable& names() const { return decoder_.names(); }
  const detect::StreamingSuite& suite() const { return suite_; }

 private:
  /// The JSONL producer: read, decode in blocks, commit, push via `emit`.
  void readJsonl(std::istream& in, const JsonlDecoder::Emit& emit);

  IngestOptions opts_;
  JsonlDecoder decoder_;
  detect::StreamingSuite suite_;
  std::atomic<bool> stop_{false};
};

}  // namespace confail::ingest
