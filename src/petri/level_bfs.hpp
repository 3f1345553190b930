// Private engine behind reachable() and reachableSymmetric(): a
// level-synchronous BFS over packed markings with a parallel expansion
// phase and a serial, deterministic commit phase.
//
// Each BFS level runs two barrier-separated phases:
//
//   Phase 1 (parallel) — every frontier state is expanded: enabled set,
//   fire, canonicalize (under symmetry), pack.  Workers pull chunks of the
//   frontier from a sched::WorkStealQueue and write successor records only
//   into their own chunk's slots; the state vector and the key->id table
//   are frozen, so the table's lock-free *reads* resolve hits on
//   previously-committed states inline with no synchronization.
//
//   Phase 2 (serial) — records are walked in (state, transition) order and
//   unknown keys get the next id.  Discovery order is therefore a pure
//   function of the net, independent of worker count or chunk scheduling:
//   state numbering, edges, parent links and dead-marking lists are
//   byte-identical from 1 worker to 64.
//
// The explorer's striped VisitedSet (sched/visited_set.hpp) is not the
// visited structure here: it answers only "new or seen", so which worker
// sees a state first — and hence its id — would depend on the schedule,
// and every probe would take a stripe lock.  Numbering needs ids in
// discovery order and the frozen table's lock-free reads (docs/petri.md).
//
// Because the packed key is the whole marking (packed_marking.hpp), a
// frontier record is (transition, key, probe result) — a few machine words
// — and new states are reconstructed from their keys, so peak frontier
// memory is measured in words per edge rather than a Marking per state.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "confail/petri/packed_marking.hpp"
#include "confail/petri/reachability.hpp"
#include "confail/sched/work_queue.hpp"
#include "confail/support/assert.hpp"
#include "confail/support/flat_table.hpp"

namespace confail::petri::detail {

/// Canon policy for the plain (no-symmetry) engine.
struct IdentityCanon {
  static constexpr bool kOrbits = false;
  bool canonicalize(Marking&) const { return false; }
  std::uint64_t orbit(const Marking&) const { return 1; }
};

/// Frontier sizes below this run the expansion inline: spawning workers
/// for a handful of states costs more than it saves.
inline constexpr std::size_t kParallelMinFrontier = 256;

/// Enumerate into `r`.  Returns false if some marking failed to pack
/// (place with 2+ tokens, or more than 64*W places) — the caller discards
/// `r` and falls back to the generic engine.  `canon.canonicalize` must be
/// const and thread-safe.
template <std::size_t W, typename Canon>
bool packedLevelBfs(const Net& net, const Marking& initial,
                    const ReachOptions& opt, const Canon& canon,
                    ReachabilityResult& r) {
  using Packed = PackedMarking<W>;
  using Table = FlatMapN<W>;
  const std::size_t places = net.placeCount();
  if (packedWords(places) > W) return false;
  CONFAIL_CHECK(opt.maxStates < Table::kNoValue, UsageError,
                "state cap must fit 32-bit ids");

  const auto toKey = [](const Packed& p) -> typename Table::Key {
    if constexpr (W == 1) {
      return p.words[0];
    } else {
      return p.words;
    }
  };

  Marking init = initial;
  canon.canonicalize(init);
  const auto initKey = Packed::encode(init);
  if (!initKey) return false;

  Table index(std::min<std::size_t>(opt.maxStates, std::size_t{1} << 16));
  r.states.reserve(4096);
  r.edges.reserve(4096);
  r.parents.reserve(4096);
  r.states.push_back(std::move(init));
  r.edges.emplace_back();
  r.parents.emplace_back();
  if constexpr (Canon::kOrbits) {
    r.orbitSizes.push_back(canon.orbit(r.states[0]));
  }
  index.findOrInsert(toKey(*initKey), 0);

  // One record per fired transition; `known` caches the frozen-table probe
  // from phase 1 (kNoValue when the key was not committed before this
  // level — phase 2 re-probes those, since an earlier phase-2 step of the
  // same level may have committed them).
  struct Succ {
    TransitionId t;
    Packed key;
    std::uint32_t known;
    bool canonChanged;
  };
  struct Slot {
    std::vector<Succ> succs;
    bool dead = false;
  };

  std::atomic<bool> packFailed{false};
  std::size_t lo = 0;
  while (lo < r.states.size()) {
    const std::size_t hi = r.states.size();
    std::vector<Slot> level(hi - lo);

    const auto expand = [&](std::size_t s) {
      Slot& slot = level[s - lo];
      const Marking& m = r.states[s];
      const std::vector<TransitionId> en = net.enabledSet(m);
      slot.dead = en.empty();
      slot.succs.reserve(en.size());
      for (TransitionId t : en) {
        Marking next = net.fire(t, m);
        const bool changed = canon.canonicalize(next);
        const auto key = Packed::encode(next);
        if (!key) {
          packFailed.store(true, std::memory_order_relaxed);
          return;
        }
        slot.succs.push_back(Succ{t, *key, index.find(toKey(*key)), changed});
      }
    };

    const std::size_t n = hi - lo;
    const std::size_t workers =
        std::min<std::size_t>(std::max<std::size_t>(opt.workers, 1), n);
    if (workers <= 1 || n < kParallelMinFrontier) {
      for (std::size_t s = lo;
           s < hi && !packFailed.load(std::memory_order_relaxed); ++s) {
        expand(s);
      }
    } else {
      struct Chunk {
        std::size_t begin, end;
      };
      const std::size_t chunk =
          std::max<std::size_t>(64, n / (workers * 8) + 1);
      sched::WorkStealQueue<Chunk> queue(workers);
      for (std::size_t b = lo, c = 0; b < hi; b += chunk, ++c) {
        queue.push(c % workers, Chunk{b, std::min(b + chunk, hi)});
      }
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          while (auto c = queue.next(w)) {
            for (std::size_t s = c->begin;
                 s < c->end && !packFailed.load(std::memory_order_relaxed);
                 ++s) {
              expand(s);
            }
            queue.done();
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    if (packFailed.load(std::memory_order_relaxed)) return false;

    std::size_t levelBytes = level.size() * sizeof(Slot);
    for (const Slot& slot : level) {
      levelBytes += slot.succs.capacity() * sizeof(Succ);
    }
    r.peakFrontierBytes = std::max(r.peakFrontierBytes, levelBytes);

    // Phase 2: deterministic serial commit in (state, transition) order.
    for (std::size_t s = lo; s < hi; ++s) {
      const Slot& slot = level[s - lo];
      if (slot.dead) r.deadStates.push_back(s);
      for (const Succ& e : slot.succs) {
        r.symmetryHits += e.canonChanged ? 1 : 0;
        std::uint32_t id = e.known;
        if (id == Table::kNoValue) id = index.find(toKey(e.key));
        if (id == Table::kNoValue) {
          if (r.states.size() >= opt.maxStates) {
            r.complete = false;  // cap: drop the new state, record no edge
            continue;
          }
          id = static_cast<std::uint32_t>(r.states.size());
          index.findOrInsert(toKey(e.key), id);
          r.states.push_back(e.key.decode(places));
          r.edges.emplace_back();
          r.parents.push_back(ParentLink{s, e.t});
          if constexpr (Canon::kOrbits) {
            r.orbitSizes.push_back(canon.orbit(r.states.back()));
          }
        }
        r.edges[s].push_back(ReachEdge{e.t, id});
      }
    }
    lo = hi;
  }
  return true;
}

/// Publish the petri.* metric rows for a finished enumeration.
void publishReachMetrics(obs::Registry* metrics, const ReachabilityResult& r);

}  // namespace confail::petri::detail
