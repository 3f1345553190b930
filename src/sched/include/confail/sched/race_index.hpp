// Last-access race lookup for the explorer's DPOR analysis.
//
// Source-set DPOR reverses, for every executed step i and every other
// thread t, t's *latest* earlier step that is dependent with step i.  The
// direct way to find it walks back from i over the run, testing each
// footprint — O(run length) per step, with a data-dependent branch at
// every test.  This index keeps the per-object last-access bookkeeping of
// Flanagan–Godefroid DPOR instead: for each thread, the latest step that
// read and the latest step that wrote each footprint Bloom bit, plus its
// latest global step and its latest step of any kind.  Steps are indexed
// once, as the analysis window grows, and a step's races then cost
// O(threads × bits set in its footprint).
//
// Two footprints are dependent when either is global or a write of one
// overlaps a read or write of the other (Footprint::dependentWith), so the
// latest step of thread t dependent with a non-global footprint F is the
// latest of: t's last global step, t's last write to any bit of
// F.read | F.write, and t's last read of any bit of F.write.  A global F is
// dependent with everything: t's last step of any kind.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "confail/events/event.hpp"
#include "confail/sched/fingerprint.hpp"

namespace confail::sched {

/// A race found by LastAccessIndex::races: `step` is the latest indexed
/// step of thread `tid` that is dependent with the queried footprint.
struct Race {
  std::uint32_t step = 0;
  events::ThreadId tid = 0;

  bool operator==(const Race&) const = default;
};

class LastAccessIndex {
 public:
  /// Forget every indexed step and size the tables for thread ids below
  /// `threads`.
  void reset(std::size_t threads) {
    rows_.assign(threads, Row{});
  }

  /// Index step `step` of thread `tid`.  Steps must be added in increasing
  /// order, and `tid` must be below the size given to reset().
  void add(std::size_t step, events::ThreadId tid, const Footprint& fp) {
    Row& r = rows_[tid];
    const std::uint32_t stamp = static_cast<std::uint32_t>(step) + 1;
    r.any = stamp;
    if (fp.global) r.global = stamp;
    for (std::uint64_t m = fp.read; m != 0; m &= m - 1) {
      r.read[std::countr_zero(m)] = stamp;
    }
    for (std::uint64_t m = fp.write; m != 0; m &= m - 1) {
      r.write[std::countr_zero(m)] = stamp;
    }
  }

  /// Append to `out`, for every thread other than `self` with an indexed
  /// step dependent with `fp`, that thread's latest such step — in
  /// descending step order, the order the backward walk meets them.
  void races(events::ThreadId self, const Footprint& fp,
             std::vector<Race>& out) const {
    const std::size_t from = out.size();
    const std::uint64_t touched = fp.read | fp.write;
    for (std::size_t t = 0; t < rows_.size(); ++t) {
      const Row& r = rows_[t];
      if (t == self || r.any == 0) continue;
      std::uint32_t best = r.global;
      if (fp.global) {
        best = r.any;
      } else {
        for (std::uint64_t m = touched; m != 0; m &= m - 1) {
          best = std::max(best, r.write[std::countr_zero(m)]);
        }
        for (std::uint64_t m = fp.write; m != 0; m &= m - 1) {
          best = std::max(best, r.read[std::countr_zero(m)]);
        }
      }
      if (best != 0) {
        out.push_back(Race{best - 1, static_cast<events::ThreadId>(t)});
      }
    }
    // Each step belongs to one thread, so the steps are distinct.
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(from), out.end(),
              [](const Race& a, const Race& b) { return a.step > b.step; });
  }

 private:
  /// One thread's last accesses, as step + 1 (0: none yet).
  struct Row {
    std::uint32_t any = 0;
    std::uint32_t global = 0;
    std::uint32_t read[64] = {};
    std::uint32_t write[64] = {};
  };
  std::vector<Row> rows_;
};

}  // namespace confail::sched
