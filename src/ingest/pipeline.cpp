#include "confail/ingest/pipeline.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "confail/ingest/ring.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::ingest {

namespace {

constexpr std::size_t kOccupancySampleEvery = 1024;
/// Blocks in flight between the reader and the decoders.
constexpr std::size_t kSlots = 8;
/// Threads one pipeline may run: the consumer, the reader, helpers.
constexpr unsigned kMaxThreads = 4;

/// Helper decode threads for this host: none on two hardware threads or
/// fewer, where the consumer and the reader already fill the machine.
unsigned helperCount() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(kMaxThreads, hw);
  return threads > 2 ? threads - 2 : 0;
}

/// The reader's ring of JSONL blocks.  The reader fills a slot with whole
/// lines and publishes it; helper threads (and the reader, when it would
/// otherwise wait) claim published blocks in order and decode them; the
/// reader commits decoded blocks strictly in order.  One mutex guards the
/// counters and the per-slot `decoded` flags; a slot's text and decoded
/// block belong to whoever the counters say holds it, so they are touched
/// outside the lock.
class BlockRing {
 public:
  using Commit = std::function<void(const DecodedBlock&)>;

  BlockRing(unsigned helpers, Commit commit, obs::Registry* metrics)
      : helpers_(helpers),
        commit_(std::move(commit)),
        blocksCtr_(metrics != nullptr ? &metrics->counter("ingest.blocks")
                                      : nullptr),
        commitWaitNs_(metrics != nullptr
                          ? &metrics->histogram("ingest.commit_wait_ns")
                          : nullptr),
        threadsGauge_(metrics != nullptr
                          ? &metrics->gauge("ingest.decode_threads")
                          : nullptr) {
    for (Slot& s : slots_) s.text = std::make_unique<char[]>(kDecodeBlockBytes);
    if (threadsGauge_ != nullptr) threadsGauge_->set(1.0);
  }

  ~BlockRing() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closing_ = true;
    }
    work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  BlockRing(const BlockRing&) = delete;
  BlockRing& operator=(const BlockRing&) = delete;

  /// The buffer of the next slot to fill (kDecodeBlockBytes long).  While
  /// every slot is in flight, commits, decodes or waits until one frees.
  char* nextBuffer() {
    for (;;) {
      commitReady();
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (filled_ - committed_ < kSlots) {
          return slots_[filled_ % kSlots].text.get();
        }
      }
      if (!decodeOne()) waitHead();
    }
  }

  /// Publish the first `len` bytes of nextBuffer() as a block.
  void publish(std::size_t len) {
    std::uint64_t filled = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      slots_[filled_ % kSlots].len = len;
      filled = ++filled_;
    }
    work_.notify_one();
    if (blocksCtr_ != nullptr) blocksCtr_->inc();
    // Helpers start with the second block: a stream of one block (or
    // none) never starts a thread.
    if (filled == 2 && helpers_ > 0) {
      for (unsigned i = 0; i < helpers_; ++i) {
        threads_.emplace_back([this] { helperLoop(); });
      }
      if (threadsGauge_ != nullptr) threadsGauge_->set(1.0 + helpers_);
    }
  }

  /// Commit every decoded block at the head, in order, through `commit`.
  void commitReady() {
    for (;;) {
      Slot* s = nullptr;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (committed_ == filled_ || !slots_[committed_ % kSlots].decoded) {
          return;
        }
        s = &slots_[committed_ % kSlots];
      }
      if (s->error) std::rethrow_exception(s->error);
      commit_(s->out);
      std::lock_guard<std::mutex> lk(mu_);
      s->decoded = false;
      ++committed_;
    }
  }

  /// Commit every published block.
  void drain() {
    for (;;) {
      commitReady();
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (committed_ == filled_) return;
      }
      if (!decodeOne()) waitHead();
    }
  }

 private:
  struct Slot {
    std::unique_ptr<char[]> text;
    std::size_t len = 0;
    DecodedBlock out;
    std::exception_ptr error;  // decodeBlock threw: rethrown at commit
    bool decoded = false;
  };

  /// Claim and decode the oldest unclaimed block; false when none is left.
  bool decodeOne() {
    Slot* s = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (claimed_ == filled_) return false;
      s = &slots_[claimed_++ % kSlots];
    }
    decode(*s);
    return true;
  }

  void decode(Slot& s) {
    try {
      decodeBlock(std::string_view(s.text.get(), s.len), s.out);
    } catch (...) {
      s.error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      s.decoded = true;
    }
    done_.notify_one();
  }

  /// Block until a helper finishes the head block, which it has claimed.
  void waitHead() {
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_.wait(lk, [this] {
        return committed_ == filled_ || slots_[committed_ % kSlots].decoded;
      });
    }
    if (commitWaitNs_ != nullptr) {
      commitWaitNs_->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }

  /// A helper: decode claimed blocks; sleep (no CPU) while none waits.
  void helperLoop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      work_.wait(lk, [this] { return closing_ || claimed_ < filled_; });
      if (claimed_ == filled_) return;  // closing with nothing left
      Slot& s = slots_[claimed_++ % kSlots];
      lk.unlock();
      decode(s);
      lk.lock();
    }
  }

  const unsigned helpers_;
  const Commit commit_;
  obs::Counter* blocksCtr_;
  obs::Histogram* commitWaitNs_;
  obs::Gauge* threadsGauge_;
  std::array<Slot, kSlots> slots_;
  std::mutex mu_;
  std::condition_variable work_;  // helpers: a block was published
  std::condition_variable done_;  // reader: a block was decoded
  std::uint64_t filled_ = 0;      // blocks published
  std::uint64_t claimed_ = 0;     // blocks taken by a decoder
  std::uint64_t committed_ = 0;   // blocks committed
  bool closing_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

IngestPipeline::IngestPipeline(IngestOptions opts)
    : opts_(opts), suite_(opts.suite) {
  suite_.setMetrics(opts_.metrics);
}

IngestPipeline::~IngestPipeline() = default;

void IngestPipeline::readJsonl(std::istream& in,
                               const JsonlDecoder::Emit& emit) {
  BlockRing blocks(
      helperCount(),
      [&](const DecodedBlock& b) { decoder_.commit(b, emit); }, opts_.metrics);
  std::string carry;      // bytes after the last newline read so far
  bool longLine = false;  // decoder_ holds the head of an unfinished line
  using clock = std::chrono::steady_clock;
  clock::time_point lastData = clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    // Read straight into the next slot, behind the carried fragment.
    char* buf = blocks.nextBuffer();
    std::memcpy(buf, carry.data(), carry.size());
    in.read(buf + carry.size(),
            static_cast<std::streamsize>(kDecodeBlockBytes - carry.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    const std::string_view data(buf, carry.size() + got);
    carry.clear();
    if (got > 0) lastData = clock::now();
    if (longLine) {
      // The decoder takes the line's bytes up to its newline.
      const std::size_t nl = data.find('\n');
      const std::size_t n = nl == std::string_view::npos ? data.size() : nl + 1;
      decoder_.feed(data.substr(0, n), emit);
      longLine = nl == std::string_view::npos;
      carry.assign(data.substr(n));
    } else if (const std::size_t cut = wholeLinesPrefix(data, data.size());
               cut > 0) {
      carry.assign(data.substr(cut));
      blocks.publish(cut);
    } else if (data.size() == kDecodeBlockBytes) {
      // A line longer than a block: what came before it commits first,
      // then the decoder buffers it.
      blocks.drain();
      decoder_.feed(data, emit);
      longLine = true;
    } else {
      carry.assign(data);
    }
    if (in.eof()) {
      if (!opts_.follow) break;
      // Idle: deliver everything read so far before polling again.
      blocks.drain();
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
  blocks.drain();
  // The final fragment: an unterminated tail, or the rest of a long line.
  decoder_.feed(carry, emit);
  decoder_.flush(emit);
}

IngestStats IngestPipeline::run(std::istream& in, detect::ReportSink& sink) {
  IngestStats stats;
  SpscRing<events::Event> ring(opts_.ringCapacity);
  std::atomic<bool> producerDone{false};

  const auto t0 = std::chrono::steady_clock::now();

  const JsonlDecoder::Emit push = [&](const events::Event& e) {
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
    } else {
      readJsonl(in, push);
    }
    producerDone.store(true, std::memory_order_release);
  });

  // Consumer: this thread drives the incremental battery.  The event count
  // is kept locally and published with each occupancy sample and once at
  // the end, so an attached registry costs nothing per event.
  obs::Counter* eventsCtr =
      opts_.metrics != nullptr ? &opts_.metrics->counter("ingest.events")
                               : nullptr;
  obs::Gauge* occupancy =
      opts_.metrics != nullptr
          ? &opts_.metrics->gauge("ingest.ring_occupancy")
          : nullptr;
  events::Event e;
  std::uint64_t analyzed = 0;
  std::uint64_t published = 0;
  for (;;) {
    if (ring.tryPop(e)) {
      suite_.feed(e);
      ++analyzed;
      if (eventsCtr != nullptr && analyzed % kOccupancySampleEvery == 0) {
        eventsCtr->add(analyzed - published);
        published = analyzed;
        occupancy->set(static_cast<double>(ring.approxSize()));
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
  if (eventsCtr != nullptr) eventsCtr->add(analyzed - published);

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
