#include "confail/sched/incremental.hpp"

#include <algorithm>
#include <utility>

#include "confail/obs/metrics.hpp"
#include "confail/support/assert.hpp"

namespace confail::sched {

namespace {
VirtualScheduler::Options sessionOptions(const IncrementalRunner::Config& cfg) {
  VirtualScheduler::Options o;
  o.maxSteps = cfg.maxSteps;
  o.captureState = cfg.captureState;
  o.captureFingerprints = cfg.captureFingerprints;
  // sched.* counters are published by the runner per run (the scheduler
  // itself only publishes from run(), which a session never calls).
  o.metrics = nullptr;
  o.fibers = true;
  return o;
}
}  // namespace

IncrementalRunner::IncrementalRunner(
    const std::function<void(VirtualScheduler&)>& program, const Config& cfg)
    : cfg_(cfg), sched_(swap_, sessionOptions(cfg)) {
  CONFAIL_CHECK(fibersSupported(), UsageError,
                "incremental exploration requires fiber support");
  program(sched_);
  usable_ = sched_.snapshotSafe();
  sched_.checkpointHook_ = [this](std::uint64_t step, std::size_t runnable) {
    onCheckpoint(step, runnable);
  };
}

IncrementalRunner::~IncrementalRunner() = default;

bool IncrementalRunner::run(RunResult& result, const PrefixNode* node,
                            const std::vector<ThreadId>& prefix,
                            ThreadId avoidAtFirstFree,
                            std::size_t branchDepthLimit, bool dporMode) {
  if (!usable_) return false;
  // Checkpoints from the previous run that the explorer never bound to a
  // spine node have no restorable key: refund them.
  dropPending();
  dropDead();

  const std::size_t prefixLen = prefix.size();
  CONFAIL_ASSERT(node != nullptr && node->depth == prefixLen,
                 "work item depth does not match its prefix");
  materializeChain(node, chain_);

  // Deepest restorable ancestor.  A DPOR run must execute step prefixLen-1
  // live — the sleep-set wake rule (sleepProcessFrom = prefixLen-1)
  // consumes that step's footprint — so its search tops out one short of
  // the item's own depth.  (Work-item nodes are never checkpointed before
  // their own run anyway; the cap is a cheap invariant guard.)
  std::size_t searchTop = prefixLen;
  if (dporMode && prefixLen > 0) searchTop = prefixLen - 1;
  const Checkpoint* from = nullptr;
  std::size_t fromDepth = 0;
  for (std::size_t d = searchTop + 1; d-- > 0;) {
    auto it = cache_.find(chain_[d]);
    if (it != cache_.end()) {
      from = &it->second;
      fromDepth = d;
      break;
    }
  }

  result.clear();
  if (from != nullptr) {
    if (!sched_.restoreSnapshot(*from->snap)) {
      // The program mutated its object graph mid-run (spawned a thread or
      // (un)registered a snapshot source): no snapshot taken before the
      // mutation can describe this session any more.  Poison the session;
      // the explorer falls back to plain replay.
      usable_ = false;
      return false;
    }
    ++tally_.restores;
    tally_.replayStepsAvoided += fromDepth;
    // Seed the result with the restored prefix's path data so the finished
    // RunResult — and everything the explorer derives from it (branches,
    // DPOR race scans, canonical witnesses) — is indistinguishable from a
    // from-scratch execution of the same schedule.  Copy-assignment keeps
    // the reused result's capacity.
    result.schedule = from->schedule;
    result.choiceSets = from->choiceSets;
    result.fingerprints = from->fingerprints;
    result.stepFootprints = from->stepFootprints;
    result.steps = fromDepth;
  } else if (!firstRun_) {
    // Dirty session state and nothing to rewind to.  The pinned root
    // checkpoint makes this unreachable in practice; bail out rather than
    // run from a corrupt state.
    usable_ = false;
    return false;
  }
  firstRun_ = false;

  // Per-run scheduler options: runLoop copies opts_.sleepSet at entry, so
  // mutating them between runs is safe.
  if (dporMode) {
    sched_.opts_.sleepSet = node->sleep;
    sched_.opts_.sleepProcessFrom = prefixLen > 0 ? prefixLen - 1 : 0;
    sched_.opts_.sleepFilterFrom = prefixLen;
    sched_.opts_.sleepFilterTo = branchDepthLimit;
  } else {
    sched_.opts_.sleepSet.clear();
    sched_.opts_.sleepProcessFrom = 0;
    sched_.opts_.sleepFilterFrom = 0;
    sched_.opts_.sleepFilterTo = static_cast<std::size_t>(-1);
  }

  // The full prefix, not the tail: PrefixReplayStrategy indexes by the
  // GLOBAL step, so a run seeded at depth d simply never consults entries
  // below d — and any gap [d, prefixLen) left by an evicted checkpoint is
  // replayed through the very same strategy (self-healing fallback).
  PrefixReplayStrategy replay(prefix.data(), prefixLen, avoidAtFirstFree);
  swap_.reset(&replay);
  curPrefixLen_ = prefixLen;
  curBranchLimit_ = branchDepthLimit;
  resultPtr_ = &result;

  std::uint64_t contextSwitches = 0;
  sched_.runLoop(result, contextSwitches);

  // Mirror run()'s post-loop teardown: a from-scratch execution aborts the
  // run's residual threads, and their unwinding destructors emit trailing
  // trace events (e.g. the MethodExit of a still-blocked thread) that every
  // trace consumer sees.  Unwind here too so an incremental run's trace is
  // indistinguishable from replay; the next restore rewinds the unwound
  // stacks and the trace alike, so nothing of the abort survives it.
  sched_.abortRun();
  sched_.aborting_ = false;

  resultPtr_ = nullptr;
  swap_.reset(nullptr);

  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("sched.runs").inc();
    // Only the executed portion: restored steps cost no execution.
    cfg_.metrics->counter("sched.steps").add(result.steps - fromDepth);
    cfg_.metrics->counter("sched.context_switches").add(contextSwitches);
  }
  return true;
}

void IncrementalRunner::bind(const PrefixNode* spineNode) {
  auto it = pending_.find(spineNode->depth);
  if (it == pending_.end()) return;
  insert(spineNode, std::move(it->second));
  pending_.erase(it);
}

void IncrementalRunner::onCheckpoint(std::uint64_t step,
                                     std::size_t runnableCount) {
  if (resultPtr_ == nullptr) return;
  const std::size_t s = static_cast<std::size_t>(step);
  // No branch is ever attached at or past the branch-depth bound, and a
  // single-choice point cannot host one either — except step 0, whose
  // checkpoint is the session's pinned always-restorable root.
  if (s >= curBranchLimit_ && s != 0) return;
  if (runnableCount <= 1 && s != 0) return;
  if (s <= curPrefixLen_) {
    // On the replayed prefix: the branch-point node already exists in the
    // prefix tree — key the checkpoint directly.
    const PrefixNode* key = chain_[s];
    if (cache_.count(key) != 0) return;  // already restorable
    Checkpoint ck = makeCheckpoint(s);
    if (!admit(ck, /*pinned=*/s == 0)) return;
    if (s == 0) rootKey_ = key;
    insert(key, std::move(ck));
  } else {
    // Past the prefix: the spine node for this depth is materialized by
    // the explorer only after the run, when it attaches branches.  Park
    // the checkpoint by depth; bind() attaches it to its node.
    if (pending_.count(s) != 0) return;
    Checkpoint ck = makeCheckpoint(s);
    if (!admit(ck, /*pinned=*/false)) return;
    pending_.emplace(s, std::move(ck));
  }
}

IncrementalRunner::Checkpoint IncrementalRunner::makeCheckpoint(
    std::size_t depth) {
  const RunResult& r = *resultPtr_;
  CONFAIL_ASSERT(r.schedule.size() == depth && r.choiceSets.size() == depth,
                 "checkpoint out of sync with the run's path data");
  Checkpoint ck;
  ck.snap = sched_.saveSnapshot();
  ck.schedule = r.schedule;
  ck.choiceSets = r.choiceSets;
  ck.fingerprints = r.fingerprints;
  ck.stepFootprints = r.stepFootprints;
  const std::size_t path = ck.schedule.size() * sizeof(ThreadId) +
                           ck.choiceSets.bytes() +
                           ck.fingerprints.size() * sizeof(std::uint64_t) +
                           ck.stepFootprints.size() * sizeof(Footprint);
  // freshBytes undercounts shared pieces on purpose: COW means a sibling
  // checkpoint only pays for what changed since the last save.
  ck.costBytes = ck.snap->freshBytes + path;
  return ck;
}

bool IncrementalRunner::admit(Checkpoint& ck, bool pinned) {
  while (tally_.retainedBytes + ck.costBytes > cfg_.budgetBytes &&
         !evictOrder_.empty()) {
    const PrefixNode* victim = evictOrder_.front();
    evictOrder_.pop_front();
    auto it = cache_.find(victim);
    if (it == cache_.end()) continue;
    tally_.retainedBytes -= std::min(tally_.retainedBytes,
                                     it->second.costBytes);
    cache_.erase(it);
    ++tally_.evictions;
  }
  if (!pinned && tally_.retainedBytes + ck.costBytes > cfg_.budgetBytes) {
    ++tally_.budgetSkips;
    return false;
  }
  tally_.retainedBytes += ck.costBytes;
  tally_.peakBytes = std::max(tally_.peakBytes, tally_.retainedBytes);
  ++tally_.stores;
  return true;
}

void IncrementalRunner::insert(const PrefixNode* key, Checkpoint ck) {
  if (cache_.count(key) != 0) {
    // Already restorable under this key (a prior run checkpointed the same
    // path); keep the existing entry and refund the duplicate.
    tally_.retainedBytes -= std::min(tally_.retainedBytes, ck.costBytes);
    return;
  }
  if (key != rootKey_) evictOrder_.push_back(key);
  cache_.emplace(key, std::move(ck));
}

void IncrementalRunner::dropDead() {
  auto kept = evictOrder_.begin();
  for (const PrefixNode* key : evictOrder_) {
    if (!key->dead()) {
      *kept++ = key;
      continue;
    }
    auto it = cache_.find(key);
    tally_.retainedBytes -= std::min(tally_.retainedBytes,
                                     it->second.costBytes);
    cache_.erase(it);
  }
  evictOrder_.erase(kept, evictOrder_.end());
}

void IncrementalRunner::dropPending() {
  for (const auto& [depth, ck] : pending_) {
    (void)depth;
    tally_.retainedBytes -= std::min(tally_.retainedBytes, ck.costBytes);
  }
  pending_.clear();
}

}  // namespace confail::sched
