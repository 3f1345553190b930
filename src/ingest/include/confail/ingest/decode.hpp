// Stream decoders: turn serialized event streams back into events::Event
// records plus the name tables needed to render findings.
//
// Two wire formats are accepted:
//
//   * JSONL (obs::toJsonl) — one self-contained object per line.  Since the
//     v2 export each line carries both resolved names and the raw numeric
//     ids (var_id, child_id, guard_method_id, method_id, method_ctx), so
//     decoding is lossless: the reconstructed Event equals the recorded one
//     field for field.  v1 lines (names only) still decode, with ids
//     re-interned first-seen — sufficient for analysis, not bit-exact.
//
//   * Chrome trace_event JSON (obs::toChromeTrace) — best-effort: paired
//     slices are unfolded back into their begin/end events and instants map
//     one-to-one, but information the exporter never wrote (numeric
//     monitor/var ids, the method context of data accesses) is re-interned
//     from names.  Good enough to run the detector battery over a trace
//     someone only kept in Chrome form; the differential guarantees apply
//     to JSONL.
//
// JSONL lines decode in one of two ways, chosen per line from its bytes
// alone.  The fast path is the single-pass scanner of line_scan.hpp: it
// claims every flat v2 line obs::toJsonl writes (unsigned integers of up to
// 15 digits, strings without escapes, true/false, ' ' as the only
// whitespace, no repeated key) and fills a LineFields record of views and
// integers without allocating.  Every other line — escapes, floats,
// negative or huge numbers, repeated keys, nested values, tabs or '\r',
// empty objects, garbage — is parsed by the obs::parseJson DOM, which
// fills the same record: the first of repeated keys wins, and a number
// outside [0, 2^64) counts as not a number.  One assemble step then turns
// either record into the Event, registers the names it carries and holds
// the v1 fallback (interning names that come without ids), so both paths
// decode a line identically; the DOM is the reference the differential
// tests hold the scanner to.
//
// Decoding a run of whole lines is split in two so it can run off the
// thread that owns the NameTable.  decodeBlock() decodes the lines into
// events without touching any NameTable: it records each name a line
// registers (table, id, view) in line order, and a line that must intern
// a name (v1 lines, whose names come without ids) or that only the DOM
// can parse becomes a deferred op at its position.  JsonlDecoder::commit()
// then replays the ops against the table — decoding deferred lines there —
// and emits the events in stream order, so first-seen ids are the ones
// the serial decoder assigns.  JsonlDecoder::feed is decodeBlock + commit
// on the calling thread; IngestPipeline runs decodeBlock on helper threads
// and commits in order.
//
// The JSONL decoder is incremental and hardened for tailing a file that a
// writer is still appending to.  Complete lines are decoded in place from
// the chunk; only a tail the chunk cuts mid-line is copied and held until
// its newline lands, so truncated final lines and interleaved partial
// writes never produce a phantom event — an unterminated tail stays pending
// (flush() decides whether it parses) and a malformed complete line is
// counted and skipped rather than aborting the stream.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "confail/detect/finding.hpp"
#include "confail/events/event.hpp"
#include "confail/events/trace.hpp"
#include "confail/support/id_table.hpp"

namespace confail::ingest {

/// Name tables rebuilt from a decoded stream.  Implements the NameSource
/// the detector cores and the ReportSink render findings through, with the
/// same "<kind>-<id>" fallback convention as events::Trace so reports are
/// byte-identical to the offline path.
class NameTable final : public detect::NameSource {
 public:
  /// Name `id` unless it already has a name; the text is copied only then.
  void thread(events::ThreadId id, std::string_view name) {
    threads_.store(id, name);
  }
  void monitor(events::MonitorId id, std::string_view name) {
    monitors_.store(id, name);
  }
  void var(events::VarId id, std::string_view name) { vars_.store(id, name); }
  void method(events::MethodId id, std::string_view name) {
    methods_.store(id, name);
  }

  /// Lowest id registered under `name`, interning a fresh dense id when
  /// unseen (the v1-JSONL / Chrome fallback where only names are on the
  /// wire).
  events::ThreadId internThread(std::string_view name) {
    return threads_.intern(name);
  }
  events::MonitorId internMonitor(std::string_view name) {
    return monitors_.intern(name);
  }
  events::VarId internVar(std::string_view name) { return vars_.intern(name); }
  events::MethodId internMethod(std::string_view name) {
    return methods_.intern(name);
  }

  std::string threadName(events::ThreadId id) const override {
    return threads_.lookup(id, "thread-");
  }
  std::string monitorName(events::MonitorId id) const override {
    return monitors_.lookup(id, "monitor-");
  }
  std::string varName(events::VarId id) const override {
    return vars_.lookup(id, "var-");
  }
  std::string methodName(events::MethodId id) const override {
    return methods_.lookup(id, "method-");
  }

  /// Name every named id of the four tables in `trace`.
  void copyTo(events::Trace& trace) const;

 private:
  /// One kind's id -> name table (empty = unnamed), with a hashed
  /// name -> lowest id index that store() and intern() keep in step.
  class Table {
   public:
    void store(std::uint32_t id, std::string_view name);
    std::uint32_t intern(std::string_view name);
    std::string lookup(std::uint32_t id, const char* prefix) const;
    void copyTo(events::Trace& trace,
                void (events::Trace::*name)(std::uint32_t, std::string)) const;

   private:
    struct Hash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const {
        return std::hash<std::string_view>{}(s);
      }
    };

    IdTable<std::string> names_;
    std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
        index_;
  };

  Table threads_;
  Table monitors_;
  Table vars_;
  Table methods_;
};

/// Decode one JSONL line (no newline): the scanner when it claims the line,
/// else the DOM.  Registers the line's names in `names`; false when the
/// line is malformed (not an object, no string "kind" naming an event kind,
/// no numeric "seq").
bool decodeJsonlLine(std::string_view line, NameTable& names,
                     events::Event& out);

/// The same decode through the obs::parseJson DOM alone: the reference
/// decodeJsonlLine is tested against.
bool decodeJsonlLineDom(std::string_view line, NameTable& names,
                        events::Event& out);

/// A run of whole JSONL lines decoded without a NameTable (see above).
/// Views point into the decoded text, which must outlive the commit.
struct DecodedBlock {
  struct Op {
    /// Name `id` in one of the four tables, or decode `text` as a line.
    enum class Kind : std::uint8_t { Thread, Monitor, Var, Method, Deferred };
    Kind kind = Kind::Deferred;
    std::uint32_t id = 0;
    std::uint32_t at = 0;  ///< events decoded before it in the block
    std::string_view text;
  };

  std::vector<events::Event> events;  ///< decoded lines, in order
  std::vector<Op> ops;                ///< in line order
  std::uint64_t bytes = 0;            ///< text size
  std::uint64_t lines = 0;            ///< non-empty lines
  std::uint64_t malformed = 0;        ///< lines that failed to decode
};

/// Decode `text`, a run of newline-terminated lines, into `out` (cleared
/// first; its buffers are reused).  Touches no NameTable.
void decodeBlock(std::string_view text, DecodedBlock& out);

/// The size of the text decodeBlock() takes at a time: small enough that a
/// block's text and events stay in cache.
inline constexpr std::size_t kDecodeBlockBytes = 32 * 1024;

/// Length of the longest prefix of `text` made of whole lines and at most
/// `maxBytes` long; when the first line alone is longer, that line.  0
/// when `text` holds no newline.
std::size_t wholeLinesPrefix(std::string_view text, std::size_t maxBytes);

/// Incremental JSONL reader.
class JsonlDecoder {
 public:
  struct Stats {
    std::uint64_t bytes = 0;      ///< bytes consumed
    std::uint64_t lines = 0;      ///< complete lines seen
    std::uint64_t events = 0;     ///< events successfully decoded
    std::uint64_t malformed = 0;  ///< complete lines that failed to decode
    std::uint64_t truncated = 0;  ///< unterminated tail dropped at flush
  };

  using Emit = std::function<void(const events::Event&)>;

  /// Consume a chunk (any framing: whole file, pipe read, single byte).
  /// Every newline-terminated line is decoded and emitted, in place when
  /// the chunk holds all of it; a trailing fragment is copied and buffered
  /// for the next chunk.
  void feed(std::string_view chunk, const Emit& emit);

  /// End of stream: decide the fate of an unterminated tail.  A tail that
  /// parses as a complete object is emitted (the writer just omitted the
  /// final newline); anything else counts as truncated and is dropped.
  void flush(const Emit& emit);

  /// Apply a block decodeBlock() produced: register its names, decode its
  /// deferred lines and emit its events, in stream order.  Blocks must be
  /// committed in stream order, between whole-line boundaries of feed()
  /// (when no partial line is buffered).
  void commit(const DecodedBlock& block, const Emit& emit);

  /// True when a partial line is buffered (the stream ended mid-write).
  bool hasPartialLine() const { return !pending_.empty(); }

  NameTable& names() { return names_; }
  const NameTable& names() const { return names_; }
  const Stats& stats() const { return stats_; }

 private:
  /// commit() without counting the block's bytes.
  void replay(const DecodedBlock& block, const Emit& emit);

  std::string pending_;
  DecodedBlock block_;  // feed()'s scratch
  NameTable names_;
  Stats stats_;
};

/// Read a whole JSONL stream into `out`, a fresh trace: the events keep
/// their decoded seq and the decoder's names become the trace's names.
/// Malformed and truncated lines are skipped and counted in the returned
/// stats, as IngestPipeline does.
JsonlDecoder::Stats loadJsonlTrace(std::istream& in, events::Trace& out);

/// Decode a complete Chrome trace_event document (the {"traceEvents": [...]}
/// form emitted by obs::toChromeTrace) into seq-ordered events.  Returns
/// the number of trace_event entries that could not be mapped.
std::uint64_t decodeChromeTrace(const std::string& text, NameTable& names,
                                std::vector<events::Event>& out);

}  // namespace confail::ingest
