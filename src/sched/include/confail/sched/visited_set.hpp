// Concurrent visited set of 64-bit state keys: the explorer's
// fingerprint-pruning dedup table ("was this state already expanded?").
//
// 64 stripes, chosen by the key's high bits, each a mutex over a
// FlatMap64.  Every insert takes one stripe lock, so it is linearizable:
// exactly one caller sees a given key as new.  Only `--prune` reads the
// set, and there the stripe locks cost nothing measurable, so the
// explorer builds it only when pruning is on.
//
// The Petri reachability engine does not share this set: it numbers
// states in discovery order and probes a frozen table from several threads
// without locks (see docs/petri.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "confail/support/flat_table.hpp"

namespace confail::sched {

class VisitedSet {
 public:
  /// Insert the key; returns true if it was new (caller owns expanding the
  /// state), false if some run already expanded an equal state.
  bool insert(std::uint64_t key) {
    Stripe& s = stripes_[key >> (64 - kStripeBits)];
    std::lock_guard<std::mutex> g(s.mu);
    return s.keys.findOrInsert(key, 0).second;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> g(s.mu);
      n += s.keys.size();
    }
    return n;
  }

  /// Occupied fraction of all stripes' slots (dedup-table pressure gauge).
  double loadFactor() const {
    std::size_t used = 0;
    std::size_t cap = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> g(s.mu);
      used += s.keys.size();
      cap += s.keys.capacity();
    }
    return static_cast<double>(used) / static_cast<double>(cap);
  }

  /// Occupancy of the fullest stripe.  The aggregate loadFactor() hides
  /// stripe imbalance — a skewed fingerprint distribution can drive one
  /// stripe toward its growth threshold while the mean looks healthy.
  double maxShardLoadFactor() const {
    double worst = 0.0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> g(s.mu);
      worst = std::max(worst, static_cast<double>(s.keys.size()) /
                                  static_cast<double>(s.keys.capacity()));
    }
    return worst;
  }

 private:
  /// The stripe is the key's top kStripeBits bits.
  static constexpr unsigned kStripeBits = 6;
  /// Keys a stripe holds before its first rehash.
  static constexpr std::size_t kStripeReserve = 256;

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    FlatMap64 keys{kStripeReserve};
  };

  Stripe stripes_[std::size_t{1} << kStripeBits];
};

}  // namespace confail::sched
