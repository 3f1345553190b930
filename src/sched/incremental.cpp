#include "confail/sched/incremental.hpp"

#include <algorithm>
#include <utility>

#include "confail/obs/metrics.hpp"
#include "confail/support/assert.hpp"

namespace confail::sched {

namespace {
/// A session scheduler publishes no sched.* counters: a scheduler
/// publishes them from run(), which a session never calls, so the runner
/// counts each run itself.
VirtualScheduler::Options sessionOptions(VirtualScheduler::Options o) {
  o.metrics = nullptr;
  return o;
}
}  // namespace

IncrementalRunner::IncrementalRunner(
    const std::function<void(VirtualScheduler&)>& program,
    const VirtualScheduler::Options& runOpts)
    : sched_(swap_, sessionOptions(runOpts)) {
  CONFAIL_CHECK(fibersSupported(), UsageError,
                "incremental exploration requires fiber support");
  if (runOpts.metrics != nullptr) {
    runsCounter_ = &runOpts.metrics->counter("sched.runs");
    stepsCounter_ = &runOpts.metrics->counter("sched.steps");
    switchesCounter_ = &runOpts.metrics->counter("sched.context_switches");
  }
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
    auto it = cache_.find(Key(chain_[d]));
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
      // (un)registered a state source): no snapshot taken before the
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
    // Dirty session state and nothing to rewind to.  The root checkpoint
    // lives while any work does, so this is unreachable in practice; bail
    // out rather than run from a corrupt state.
    usable_ = false;
    return false;
  }
  firstRun_ = false;

  // Per-run sleep window: runLoop copies opts_.sleepSet at entry, so
  // mutating it between runs is safe.
  sched_.opts_.setSleepWindow(
      dporMode ? node->sleep : std::span<const SleepEntry>(), prefixLen,
      branchDepthLimit);

  // The full prefix, not the tail: PrefixReplayStrategy indexes by the
  // GLOBAL step, so a run seeded at depth d simply never consults entries
  // below d — and any gap [d, prefixLen) between the restored checkpoint
  // and the item's depth is replayed through the very same strategy.
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

  if (runsCounter_ != nullptr) {
    runsCounter_->inc();
    // Only the executed portion: restored steps cost no execution.
    stepsCounter_->add(result.steps - fromDepth);
    switchesCounter_->add(contextSwitches);
  }
  return true;
}

void IncrementalRunner::bind(const PrefixNode* spineNode) {
  auto it = pending_.find(spineNode->depth);
  if (it == pending_.end()) return;
  insert(Key(spineNode), std::move(it->second));
  pending_.erase(it);
}

void IncrementalRunner::onCheckpoint(std::uint64_t step,
                                     std::size_t runnableCount) {
  if (resultPtr_ == nullptr) return;
  const std::size_t s = static_cast<std::size_t>(step);
  // No branch is ever attached at or past the branch-depth bound, and a
  // single-choice point cannot host one either — except step 0, whose
  // checkpoint is keyed to the root and so restorable until the
  // exploration runs out of work.
  if (s >= curBranchLimit_ && s != 0) return;
  if (runnableCount <= 1 && s != 0) return;
  if (s <= curPrefixLen_) {
    // On the replayed prefix: the branch-point node already exists in the
    // prefix tree — key the checkpoint directly.
    const Key key(chain_[s]);
    if (cache_.count(key) != 0) return;  // already restorable
    insert(key, makeCheckpoint(s));
  } else {
    // Past the prefix: the spine node for this depth is materialized by
    // the explorer only after the run, when it attaches branches.  Park
    // the checkpoint by depth; bind() attaches it to its node.
    if (pending_.count(s) != 0) return;
    pending_.emplace(s, makeCheckpoint(s));
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
  tally_.retainedBytes += ck.costBytes;
  tally_.peakBytes = std::max(tally_.peakBytes, tally_.retainedBytes);
  ++tally_.stores;
  return ck;
}

void IncrementalRunner::insert(Key key, Checkpoint ck) {
  // Already restorable under this key (a prior run checkpointed the same
  // path): keep the existing entry and refund the duplicate.
  const std::size_t cost = ck.costBytes;
  if (!cache_.try_emplace(key, std::move(ck)).second) {
    tally_.retainedBytes -= std::min(tally_.retainedBytes, cost);
  }
}

void IncrementalRunner::dropDead() {
  // The root never reads as gone here: it stays live while any work item
  // is queued or running, and this run's own item is one of them.
  std::erase_if(cache_, [this](const auto& entry) {
    if (!entry.first.gone()) return false;
    tally_.retainedBytes -= std::min(tally_.retainedBytes,
                                     entry.second.costBytes);
    return true;
  });
}

void IncrementalRunner::dropPending() {
  for (const auto& [depth, ck] : pending_) {
    (void)depth;
    tally_.retainedBytes -= std::min(tally_.retainedBytes, ck.costBytes);
  }
  pending_.clear();
}

}  // namespace confail::sched
