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
// Nodes live in per-worker bump-allocated chunks owned by the explorer's
// PrefixArena: allocation never takes a lock (each worker extends only its
// own lane), nodes are immutable after publication (publication happens
// via the work queue's mutex, which orders the node stores before any
// other worker can observe the pointer), and everything is reclaimed at
// once when explore() returns.  Nodes are never freed individually — a
// parent must outlive every descendant, and at well under 100 bytes/node a
// multi-million-run exploration costs tens of MB, reported through the
// `explorer.prefix_arena_bytes` gauge (chunk granularity).  DPOR sleep sets
// live in the same lanes, in chunks of entries: most nodes carry one, and
// a heap vector per node (an allocation, its header and its slack) cost
// more than the entries themselves.
//
// Two fields stay mutable after publication, both atomic:
//   * `expanded`, the DPOR bookkeeping mask: bit t set means a run that
//     picks thread t at this node's decision point has already been
//     enqueued (or is the node's own spine).  Source-set backtracking (see
//     explorer.cpp) uses fetch_or on it so that concurrent workers
//     discovering the same race enqueue the reversal exactly once.
//   * `live`, the subtree's liveness: nonzero exactly while a work item is
//     queued or running at this node or below it.  The explorer retains a
//     child item's node before publishing it and releases a run's own node
//     after publishing the run's children.  Only a run inside a subtree can
//     add work to it, so a count that has dropped to zero never rises
//     again: the node is dead, and no later run's prefix passes through
//     it.  The incremental runner drops dead nodes' checkpoints, which ties
//     retained snapshot memory to the live DFS frontier.
#pragma once

#include <algorithm>
#include <atomic>
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
/// decision point *at the end of* its path.
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

  /// The work item at this node has run and published its children: drop
  /// it, and the node from its parent's count if the subtree became empty.
  void release() const {
    for (const PrefixNode* p = this; p != nullptr; p = p->parent) {
      if (p->live.fetch_sub(1, std::memory_order_acq_rel) != 1) break;
    }
  }

  /// True once no work item can ever be queued or run at or below this
  /// node again.  Exact for any node whose retain() the caller has seen
  /// (a published item's ancestors, or nodes the caller created).
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

/// Bump allocator for PrefixNodes, one lane per worker so allocation is
/// lock-free; all chunks die with the arena.
class PrefixArena {
 public:
  explicit PrefixArena(std::size_t workers) : lanes_(workers) {
    root_.parent = nullptr;
    root_.tid = events::kNoThread;
    root_.depth = 0;
  }

  PrefixArena(const PrefixArena&) = delete;
  PrefixArena& operator=(const PrefixArena&) = delete;

  /// The empty prefix.
  const PrefixNode* root() const { return &root_; }

  /// Append `tid` to `parent`'s path.  Only `worker`'s own thread may pass
  /// that lane index; the returned node may be read by any worker once it
  /// has been published through a synchronizing handoff (the work queue).
  /// Returned mutable so the creator can fill `sleep` before publishing.
  PrefixNode* child(std::size_t worker, const PrefixNode* parent,
                    ThreadId tid) {
    Lane& lane = lanes_[worker];
    if (lane.used == kChunkNodes) {
      lane.chunks.push_back(std::make_unique<Chunk>());
      lane.used = 0;
      bytes_.fetch_add(sizeof(Chunk), std::memory_order_relaxed);
    }
    PrefixNode* n = &lane.chunks.back()->nodes[lane.used++];
    n->parent = parent;
    n->tid = tid;
    n->depth = parent->depth + 1;
    return n;
  }

  /// Store `entries`, followed by `extra` when given, in `worker`'s lane:
  /// the sleep set of a node that worker creates.  Same lifetime and
  /// threading rules as child().
  std::span<const SleepEntry> sleepSet(std::size_t worker,
                                       std::span<const SleepEntry> entries,
                                       const SleepEntry* extra = nullptr) {
    const std::size_t n = entries.size() + (extra != nullptr ? 1 : 0);
    if (n == 0) return {};
    Lane& lane = lanes_[worker];
    if (lane.sleepUsed + n > lane.sleepCap) {
      lane.sleepCap = std::max(n, kChunkEntries);
      lane.sleepChunks.push_back(std::make_unique<SleepEntry[]>(lane.sleepCap));
      lane.sleepUsed = 0;
      bytes_.fetch_add(lane.sleepCap * sizeof(SleepEntry),
                       std::memory_order_relaxed);
    }
    SleepEntry* out = lane.sleepChunks.back().get() + lane.sleepUsed;
    std::copy(entries.begin(), entries.end(), out);
    if (extra != nullptr) out[entries.size()] = *extra;
    lane.sleepUsed += n;
    return {out, n};
  }

  /// Bytes of node and sleep-set storage allocated so far (chunk
  /// granularity).
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
    std::vector<std::unique_ptr<SleepEntry[]>> sleepChunks;
    std::size_t sleepUsed = 0;
    std::size_t sleepCap = 0;  ///< entries in sleepChunks.back()
  };

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
