// FlatMapN<W>: a flat open-addressing hash table from W-word keys to 32-bit
// values (FlatMap64 is the one-word alias).
//
// The Petri engines key on a compact fixed-width encoding of a state: a
// 1-bounded marking packed into one bit per place — one word for <= 64
// places, up to four words for the N-thread x M-monitor nets.  The table
// avoids the per-node allocation, pointer chasing and bucket indirection
// of std::unordered_map: storage is a single contiguous slot array probed
// linearly, and lookups on the BFS hot path touch one cache line in the
// common case.  Capacity is a power of two, pre-reservable, and doubles at
// ~70% load.  No erase (no engine removes states mid-enumeration).  The
// table itself is unsynchronized: the Petri engine reads a frozen table
// from many threads, and the explorer's dedup (sched::VisitedSet) locks
// one of 64 striped tables per insert.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "confail/support/assert.hpp"

namespace confail {

template <std::size_t W>
class FlatMapN {
  static_assert(W >= 1 && W <= 8, "key width is 1..8 words");

 public:
  /// One word for W == 1 (so call sites pass plain integers), a fixed
  /// array otherwise.
  using Key = std::conditional_t<W == 1, std::uint64_t,
                                 std::array<std::uint64_t, W>>;

  /// Sentinel marking an empty slot.  Values passed to findOrInsert must be
  /// distinct from it (state indices are capped well below 2^32-1).
  static constexpr std::uint32_t kNoValue = 0xffffffffu;

  /// `expected` is the anticipated number of entries; the table pre-reserves
  /// enough slots that no rehash happens before `expected` insertions.
  explicit FlatMapN(std::size_t expected = 0) { reserve(expected); }

  /// Value stored under `key`, or kNoValue if absent.  Safe to call from
  /// several threads concurrently as long as no findOrInsert runs at the
  /// same time (the Petri engine's barrier-phased frontier relies on this).
  std::uint32_t find(const Key& key) const {
    std::size_t i = static_cast<std::size_t>(hash(key)) & mask_;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.value == kNoValue) return kNoValue;
      if (s.key == key) return s.value;
      i = (i + 1) & mask_;
    }
  }

  /// Insert (key -> value) if the key is absent.  Returns the resident value
  /// (existing or just-inserted) and whether an insertion happened.
  std::pair<std::uint32_t, bool> findOrInsert(const Key& key,
                                              std::uint32_t value) {
    CONFAIL_ASSERT(value != kNoValue, "kNoValue is reserved");
    std::size_t i = static_cast<std::size_t>(hash(key)) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.value == kNoValue) {
        s.key = key;
        s.value = value;
        ++size_;
        if (size_ * 10 >= slots_.size() * 7) grow();
        return {value, true};
      }
      if (s.key == key) return {s.value, false};
      i = (i + 1) & mask_;
    }
  }

  std::size_t size() const { return size_; }

  /// Slots allocated (the load-factor denominator).
  std::size_t capacity() const { return slots_.size(); }

  /// Grow the slot array so at least `expected` entries fit under the load
  /// factor.  Never shrinks.
  void reserve(std::size_t expected) {
    std::size_t want = 16;
    while (want * 7 < (expected + 1) * 10) want <<= 1;
    if (want <= slots_.size()) return;
    rehash(want);
  }

 private:
  struct Slot {
    Key key{};
    std::uint32_t value = kNoValue;
  };

  /// SplitMix64 finalizer: full-avalanche scrambling so sequential encodings
  /// (markings differ in low bits) spread across the table.
  static std::uint64_t mix(std::uint64_t k) {
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
    return k ^ (k >> 31);
  }

  static std::uint64_t hash(const Key& key) {
    if constexpr (W == 1) {
      return mix(key);
    } else {
      // Chain one finalizer per word; each word fully avalanches before the
      // next is folded in, so sparse bit-vector keys do not cancel.
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::uint64_t w : key) h = mix(h ^ w);
      return h;
    }
  }

  void grow() { rehash(slots_.size() * 2); }

  void rehash(std::size_t newCap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(newCap, Slot{});
    mask_ = newCap - 1;
    for (const Slot& s : old) {
      if (s.value == kNoValue) continue;
      std::size_t i = static_cast<std::size_t>(hash(s.key)) & mask_;
      while (slots_[i].value != kNoValue) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The one-word table: packed markings of nets with at most 64 places.
using FlatMap64 = FlatMapN<1>;

}  // namespace confail
