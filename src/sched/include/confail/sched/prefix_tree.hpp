// Zero-copy schedule prefixes: an immutable parent-pointer tree in an arena.
//
// The explorer's frontier used to carry a full std::vector<ThreadId> per
// queued work item — an O(depth) allocation and copy for every child, paid
// again each time the tree fans out.  A schedule prefix is by construction
// an extension of the prefix that spawned it, so the frontier is stored as
// a tree instead: each node appends one thread id to its parent's path, and
// a work item is a single pointer.  Queuing a child is O(1) and constant
// memory; the full prefix is materialized exactly once per run, when the
// worker walks the parent chain into its reusable scratch buffer for
// PrefixReplayStrategy to borrow.
//
// Nodes live in per-worker chunks owned by the explorer's PrefixArena:
// allocation never takes a lock (each worker allocates only from its own
// lane), and a node's path is immutable while it is live (publication
// happens via the work queue's mutex, which orders the node stores before
// any other worker can observe the pointer).  A node is recycled as soon
// as it dies (`live` drops to zero, see below): its slot goes onto the
// free list of the worker whose release() killed it, its sleep set onto
// that lane's free list for the set's size class, and the lane hands both
// out again before it carves a new chunk.  A dead node has no live
// descendant, so no parent pointer can dangle, and the arena's footprint
// — the `explorer.prefix_arena_bytes` gauge, chunk granularity — follows
// the high-water mark of the live frontier, not the number of runs.
// Chunks are returned all at once when explore() returns.  DPOR sleep
// sets live in the same lanes, in chunks of entries: most nodes carry
// one, and a heap vector per node (an allocation, its header and its
// slack) cost more than the entries themselves.
//
// Because slots are reused, a node's address names it only for one
// lifetime.  Each reuse bumps the slot's `generation`, so (address,
// generation) names one node for the whole exploration: anything that
// remembers a node past its death (the incremental runner's checkpoint
// cache) keys on that pair.
//
// Three fields stay mutable after publication, all atomic:
//   * `expanded`, the DPOR bookkeeping mask: bit t set means a run that
//     picks thread t at this node's decision point has already been
//     enqueued (or is the node's own spine).  Source-set backtracking (see
//     explorer.cpp) uses fetch_or on it so that concurrent workers
//     discovering the same race enqueue the reversal exactly once.
//   * `live`, the subtree's liveness: nonzero exactly while a work item is
//     queued or running at this node or below it.  The explorer retains a
//     child item's node before publishing it and releases a run's own node
//     after publishing the run's children.  Only a run inside a subtree can
//     add work to it, so within one generation of a slot a count that has
//     dropped to zero never rises again: the node is dead, no later run's
//     prefix passes through it, and the arena recycles it.  The
//     incremental runner drops dead nodes' checkpoints, which ties retained
//     snapshot memory to the live DFS frontier.
//   * `generation`, bumped by the arena each time it reuses the slot.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "confail/events/event.hpp"
#include "confail/sched/fingerprint.hpp"
#include "confail/support/assert.hpp"

namespace confail::sched {

using events::ThreadId;

/// One prefix: the path of thread ids from the root to this node.
/// `depth` is the path length; `tid` is the last id on it (the edge from
/// `parent`).  The node also carries the DPOR expansion mask for the
/// decision point *at the end of* its path.  Valid while live; a dead
/// node's slot belongs to the arena (see the file comment).
struct PrefixNode {
  const PrefixNode* parent = nullptr;  ///< null only on the root
  ThreadId tid = events::kNoThread;    ///< edge label from parent
  std::uint32_t depth = 0;             ///< prefix length (edges from root)

  /// Bit t: a run choosing thread t at this node's decision point has been
  /// enqueued or is this node's spine.  Mutable because work items hand out
  /// const pointers (the path is immutable; this mask is bookkeeping).
  mutable std::atomic<std::uint64_t> expanded{0};

  /// Work items queued or running at this node, plus children whose own
  /// count is nonzero: zero exactly when no item is queued or running at
  /// or below this node.  Counting live children instead of every item in
  /// the subtree lets retain/release stop at the first ancestor whose
  /// liveness does not change, instead of touching the root every time.
  mutable std::atomic<std::uint32_t> live{0};

  /// How many times the arena has reused this slot: (address, generation)
  /// names one node across recycling.  Written only by the arena, before
  /// the reused node is published.
  std::atomic<std::uint32_t> generation{0};

  /// Reduction::Dpor only: the thread the node's first run took at its
  /// decision point (its spine), set by that run before it publishes any
  /// child, so every run below the node reads it.  kNoThread until then.
  mutable ThreadId spine = events::kNoThread;

  /// Atomically claim thread `t` at this decision point.  True exactly once
  /// per (node, t) — the caller that wins owns enqueueing that branch.
  /// Ids beyond the 64-bit mask always claim (duplicated work, never lost
  /// work); real scenarios stay far below 64 logical threads.
  bool tryClaim(ThreadId t) const {
    if (t >= 64) return true;
    const std::uint64_t bit = 1ull << t;
    return (expanded.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0;
  }

  /// A work item at this node is about to be published: make the node and
  /// every ancestor that was not yet live, live.  Called by the run that
  /// creates the item, which is itself live at or above an ancestor of it.
  void retain() const {
    for (const PrefixNode* p = this; p != nullptr; p = p->parent) {
      if (p->live.fetch_add(1, std::memory_order_relaxed) != 0) break;
    }
  }

  /// True once no work item can ever be queued or run at or below this
  /// node again (in this slot generation: a dead slot may be recycled).
  /// Exact for any node whose retain() the caller has seen (a published
  /// item's ancestors, or nodes the caller created).
  bool dead() const { return live.load(std::memory_order_acquire) == 0; }

  /// Reduction::Dpor only: the sleep set valid at the state reached by
  /// prefix[0 .. depth-1), i.e. just *before* this node's last step
  /// executes (the creating run knows that state; it cannot know the last
  /// step's own footprint, so the scheduler replays the wake rule from
  /// step depth-1 on).  Written once by the creator before publication.
  /// It is the parent's own sleep set plus, for a branch off the parent's
  /// spine, the spine's entry — a path property, hence identical no matter
  /// which run creates the node (see the DPOR analysis in explorer.cpp).
  /// Stored in the arena (PrefixArena::sleepSet).
  std::span<const SleepEntry> sleep;
};

/// Allocator for PrefixNodes and their sleep sets, one lane per worker so
/// allocation is lock-free.  Each lane hands out recycled slots first and
/// bump-allocates from its chunks otherwise; all chunks die with the arena.
class PrefixArena {
 public:
  explicit PrefixArena(std::size_t workers) : lanes_(workers) {
    root_.parent = nullptr;
    root_.tid = events::kNoThread;
    root_.depth = 0;
  }

  PrefixArena(const PrefixArena&) = delete;
  PrefixArena& operator=(const PrefixArena&) = delete;

  /// The empty prefix.  Never recycled.
  const PrefixNode* root() const { return &root_; }

  /// Append `tid` to `parent`'s path.  Only `worker`'s own thread may pass
  /// that lane index; the returned node may be read by any worker once it
  /// has been published through a synchronizing handoff (the work queue).
  /// Returned mutable so the creator can fill `sleep` before publishing.
  /// A recycled slot comes back as a fresh node (nothing expanded, not
  /// live, no spine, no sleep set) under the next generation.
  PrefixNode* child(std::size_t worker, const PrefixNode* parent,
                    ThreadId tid) {
    Lane& lane = lanes_[worker];
    PrefixNode* n;
    if (!lane.freeNodes.empty()) {
      n = lane.freeNodes.back();
      lane.freeNodes.pop_back();
      n->expanded.store(0, std::memory_order_relaxed);
      n->live.store(0, std::memory_order_relaxed);
      n->generation.fetch_add(1, std::memory_order_relaxed);
      n->spine = events::kNoThread;
      n->sleep = {};
    } else {
      if (lane.used == kChunkNodes) {
        lane.chunks.push_back(std::make_unique<Chunk>());
        lane.used = 0;
        bytes_.fetch_add(sizeof(Chunk), std::memory_order_relaxed);
      }
      n = &lane.chunks.back()->nodes[lane.used++];
    }
    n->parent = parent;
    n->tid = tid;
    n->depth = parent->depth + 1;
    return n;
  }

  /// Store `entries`, followed by `extra` when given, in `worker`'s lane:
  /// the sleep set of a node that worker creates.  Same threading rules as
  /// child(); the set is recycled with its node.
  std::span<const SleepEntry> sleepSet(std::size_t worker,
                                       std::span<const SleepEntry> entries,
                                       const SleepEntry* extra = nullptr) {
    const std::size_t n = entries.size() + (extra != nullptr ? 1 : 0);
    if (n == 0) return {};
    Lane& lane = lanes_[worker];
    const std::size_t cls = sizeClass(n);
    std::vector<SleepEntry*>& free = freeSpans(lane, cls);
    SleepEntry* out;
    if (!free.empty()) {
      out = free.back();
      free.pop_back();
    } else {
      const std::size_t cap = std::size_t{1} << cls;
      if (lane.sleepUsed + cap > lane.sleepCap) {
        lane.sleepCap = std::max(cap, kChunkEntries);
        lane.sleepChunks.push_back(
            std::make_unique<SleepEntry[]>(lane.sleepCap));
        lane.sleepUsed = 0;
        bytes_.fetch_add(lane.sleepCap * sizeof(SleepEntry),
                         std::memory_order_relaxed);
      }
      out = lane.sleepChunks.back().get() + lane.sleepUsed;
      lane.sleepUsed += cap;
    }
    std::copy(entries.begin(), entries.end(), out);
    if (extra != nullptr) out[entries.size()] = *extra;
    return {out, n};
  }

  /// The work item at `n` has run and published its children, or was
  /// dropped unrun: drop it, and the node from its parent's count if the
  /// subtree became empty, and so on up.  Every node whose count reaches
  /// zero is dead and goes back to `worker`'s lane (recycle()).  Exactly
  /// one release sees a node die, so each dead node is recycled once.
  void release(std::size_t worker, const PrefixNode* n) {
    while (n != nullptr &&
           n->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const PrefixNode* parent = n->parent;
      if (n != &root_) recycle(worker, n);
      n = parent;
    }
  }

  /// Return dead node `n`, and its sleep set, to `worker`'s free lists.
  /// The caller must own the death: `n` came out of release()'s walk, or
  /// `worker` created it and never published it, and no item was ever
  /// retained at or below it.
  void recycle(std::size_t worker, const PrefixNode* n) {
    CONFAIL_ASSERT(n != &root_ && n->dead(), "recycling a live prefix node");
    Lane& lane = lanes_[worker];
    PrefixNode* slot = const_cast<PrefixNode*>(n);
    if (!slot->sleep.empty()) {
      // Only sleepSet() hands out spans, and always of at least one entry.
      freeSpans(lane, sizeClass(slot->sleep.size()))
          .push_back(const_cast<SleepEntry*>(slot->sleep.data()));
    }
    lane.freeNodes.push_back(slot);
  }

  /// Bytes of node and sleep-set storage allocated so far (chunk
  /// granularity): recycled slots are reused, so this is the high-water
  /// mark of the live tree plus the lanes' free lists.
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kChunkNodes = 1024;
  static constexpr std::size_t kChunkEntries = 2048;
  struct Chunk {
    PrefixNode nodes[kChunkNodes];
  };
  struct Lane {
    std::vector<std::unique_ptr<Chunk>> chunks;
    std::size_t used = kChunkNodes;  ///< forces a chunk on first child()
    std::vector<PrefixNode*> freeNodes;
    std::vector<std::unique_ptr<SleepEntry[]>> sleepChunks;
    std::size_t sleepUsed = 0;
    std::size_t sleepCap = 0;  ///< entries in sleepChunks.back()
    std::vector<std::vector<SleepEntry*>> freeSleep;  ///< see freeSpans()
  };

  /// A sleep set of n >= 1 entries takes a span of 2^sizeClass(n).
  static std::size_t sizeClass(std::size_t n) {
    return static_cast<std::size_t>(std::bit_width(n - 1));
  }

  /// `lane`'s free list of recycled spans of 2^cls entries.
  static std::vector<SleepEntry*>& freeSpans(Lane& lane, std::size_t cls) {
    if (lane.freeSleep.size() <= cls) lane.freeSleep.resize(cls + 1);
    return lane.freeSleep[cls];
  }

  PrefixNode root_;
  std::vector<Lane> lanes_;
  std::atomic<std::uint64_t> bytes_{0};
};

/// Walk the parent chain once, writing the prefix thread ids into `out`
/// (resized to the node's depth).  O(depth), the only per-run cost of the
/// tree representation.
inline void materializePrefix(const PrefixNode* n, std::vector<ThreadId>& out) {
  CONFAIL_ASSERT(n != nullptr, "null prefix node");
  out.resize(n->depth);
  for (const PrefixNode* p = n; p->parent != nullptr; p = p->parent) {
    out[p->depth - 1] = p->tid;
  }
}

/// Same walk, but collecting the node of every ancestor depth: on return
/// `out[d]` is the prefix node of length d, for d in [0, n->depth].  The
/// DPOR race analysis uses this to hang backtrack points on decision
/// points inside the replayed prefix.
inline void materializeChain(const PrefixNode* n,
                             std::vector<const PrefixNode*>& out) {
  CONFAIL_ASSERT(n != nullptr, "null prefix node");
  out.resize(static_cast<std::size_t>(n->depth) + 1);
  for (const PrefixNode* p = n;; p = p->parent) {
    out[p->depth] = p;
    if (p->parent == nullptr) break;
  }
}

}  // namespace confail::sched
