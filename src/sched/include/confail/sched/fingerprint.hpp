// State fingerprinting and step footprints for schedule-tree pruning.
//
// The exhaustive explorer re-executes the program once per schedule prefix;
// without reduction, every permutation of independent steps is paid for in
// full.  Two classic model-checking ideas (JPF-style state hashing, sleep
// sets) are grafted onto the stateless design:
//
//   * A *fingerprint* is a 64-bit hash of the complete scheduler-visible
//     state at a decision point: every logical thread's status and block
//     reason, plus the state of each registered StateSource (snapshot.hpp:
//     monitors hash owner/depth/entry-queue/wait-set; shared variables
//     hash their value; the Runtime hashes its policy-RNG state; the
//     Injector its occasion counters).  Two runs whose fingerprints agree
//     at the same decision depth are in the same state and share one
//     future: branching is done once.
//
//   * A *footprint* summarizes what one scheduler step (the segment between
//     two decision points) touched, as read/write Bloom masks over monitor,
//     variable and blocking-resource tags.  Two adjacent steps of different
//     threads with non-conflicting footprints commute — executing them in
//     either order reaches the same state — which lets the explorer skip
//     queueing one of the two transposed orders (a sleep-set-style check).
//
// Soundness assumptions are documented in docs/exploration.md: components
// must route all cross-thread interaction through instrumented state
// (monitors, SharedVar, scheduler blocking), and 64-bit hashing carries the
// usual negligible-but-nonzero collision risk accepted by hash-compaction
// model checkers.
#pragma once

#include <cstdint>

#include "confail/events/event.hpp"

namespace confail::sched {

/// FNV-1a offset basis; the seed of every fingerprint chain.
inline constexpr std::uint64_t kFpSeed = 0xcbf29ce484222325ull;

/// Mix one 64-bit quantity into a running fingerprint (FNV-1a over the
/// value's bytes, unrolled to one multiply per word plus avalanche).
inline std::uint64_t fpMix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v;
  h *= 0x100000001b3ull;
  h ^= h >> 29;
  return h;
}

/// Stable tag for a named resource (domain: 'm' monitor, 'v' shared var,
/// 'b' scheduler block resource, 'r' policy RNG).  SplitMix64-finalized so
/// dense ids spread over the footprint mask bits.
inline std::uint64_t fpTag(char domain, std::uint64_t id) noexcept {
  std::uint64_t k = (static_cast<std::uint64_t>(domain) << 56) ^ id;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

/// What one scheduler step touched: 64-bit read/write Bloom masks over
/// resource tags, plus a "global" flag for effects that defeat commutation
/// analysis entirely (thread spawn, abstract-clock progress).  A set bit
/// may alias several resources; aliasing only makes the independence check
/// more conservative, never unsound.
struct Footprint {
  std::uint64_t read = 0;
  std::uint64_t write = 0;
  bool global = false;

  void addRead(std::uint64_t tag) noexcept { read |= 1ull << (tag & 63); }
  void addWrite(std::uint64_t tag) noexcept { write |= 1ull << (tag & 63); }
  void clear() noexcept { read = write = 0; global = false; }

  /// True if two steps with these footprints commute: neither is global and
  /// no write of one overlaps a read or write of the other.
  bool independentWith(const Footprint& o) const noexcept {
    if (global || o.global) return false;
    return (write & o.write) == 0 && (write & o.read) == 0 &&
           (read & o.write) == 0;
  }

  /// The dependence relation of the DPOR literature — the complement of
  /// independence.  Two dependent steps do not commute: their order is
  /// observable, so reversing them is a genuine schedule-tree branch.
  /// Bloom aliasing can only add dependence (suppress a reduction), never
  /// remove it — conservative in the sound direction.
  bool dependentWith(const Footprint& o) const noexcept {
    return !independentWith(o);
  }
};

/// A thread whose next step is provably redundant to schedule — the
/// classic DPOR *sleep set* entry (Flanagan–Godefroid).  `tid`'s pending
/// step, whose footprint was `fp` when the thread was put to sleep, has
/// already been explored from this state by a sibling branch; re-executing
/// it here would only permute independent steps.  The entry *wakes*
/// (stops applying) as soon as some executed step is dependent with `fp`,
/// because from then on the reordering is observable again.
struct SleepEntry {
  events::ThreadId tid = 0;
  Footprint fp;
};

}  // namespace confail::sched
