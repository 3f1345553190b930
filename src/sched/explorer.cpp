#include "confail/sched/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <thread>
#include <utility>

#include "confail/obs/metrics.hpp"
#include "confail/sched/fingerprint.hpp"
#include "confail/sched/incremental.hpp"
#include "confail/sched/prefix_tree.hpp"
#include "confail/sched/work_queue.hpp"

namespace confail::sched {

namespace {

/// An unexecuted schedule prefix (a node of the shared prefix tree), plus an
/// optional one-shot sleep entry.
///
/// The sleep entry records the step that the parent run took at this item's
/// branch point (the spine choice) together with that step's footprint.  If
/// the child's own first step turns out to be independent of it, the child
/// must NOT branch back to the spine thread at its first decision point:
/// that sibling is the pure transposition of two commuting steps and leads
/// to a state explored from the parent's subtree.  The entry applies only
/// at depth == node->depth and is never inherited further down.
struct WorkItem {
  const PrefixNode* node = nullptr;
  ThreadId sleepThread = events::kNoThread;
  Footprint sleepFp;
};

/// Per-worker tallies, merged once at the end so that hot-loop counting is
/// uncontended and the merged totals are order-independent.
struct LocalStats {
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t stepLimited = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t prunedBranches = 0;
  std::uint64_t dedupedStates = 0;
  std::uint64_t dporBacktracks = 0;
  std::uint64_t sleepBlockedRuns = 0;
  std::uint64_t fpLookups = 0;  ///< visited-set probes (dedup-rate denominator)
  std::uint64_t busyNs = 0;     ///< time spent executing runs (metrics only)
  std::uint64_t incrementalFallbacks = 0;  ///< runs bounced back to replay
  bool hasFailure = false;
  std::vector<ThreadId> firstFailure;
  Outcome firstFailureOutcome = Outcome::Completed;
};

/// Longest failing schedule the DPOR witness canonicalization will process;
/// longer ones (runaway step-limit runs) are reported raw.
constexpr std::size_t kCanonMaxLen = 4096;

/// Longest schedule head the DPOR race analysis scans (quadratic worst
/// case; bounded exploration keeps real runs far below this).
constexpr std::size_t kDporAnalysisWindow = 4096;

}  // namespace

/// The lexicographically smallest linearization of the run's Mazurkiewicz
/// trace, defined by program order plus the footprint dependence relation.
/// Reduction::Dpor executes only one representative per trace, so the
/// schedule it happens to run is an accident of traversal order; every
/// linearization of a trace reaches the same final state, and
/// Reduction::None — which executes them all — reports the smallest one.
/// Canonicalizing reproduces that witness without executing it.
///
/// The DAG is built from generating edges only: each step links to its
/// program-order predecessor and, per other thread, to that thread's last
/// dependent step; transitivity through program order recovers the full
/// dependence relation.  Greedily emitting the smallest-thread-id ready
/// step yields the lex-min topological order (standard exchange argument),
/// and program-order chains guarantee at most one ready step per thread.
/// Acyclicity is free: every edge points forward in the executed order.
///
/// Footprints alone under-approximate causality in one case: a thread
/// woken from a blocked state whose resumption segment touches nothing
/// records an empty footprint, so nothing orders it after the step that
/// woke it — and the lex-min linearization may hoist the resumption above
/// its waker, yielding a schedule that does not replay (the thread is
/// still blocked there).  The recorded choice sets carry exactly the
/// missing fact: if the step's thread was absent from a choice set since
/// its previous step, the last step executed while it was absent is the
/// one that enabled it (wake or spawn), and gets an explicit edge.
std::vector<ThreadId> canonicalTraceWitness(const RunResult& result) {
  const std::vector<ThreadId>& s = result.schedule;
  const std::size_t n = s.size();
  if (n == 0 || n > kCanonMaxLen || result.stepFootprints.size() < n ||
      result.choiceSets.size() < n) {
    return s;
  }

  ThreadId maxTid = 0;
  for (ThreadId t : s) maxTid = std::max(maxTid, t);
  std::vector<std::uint32_t> indeg(n, 0);
  std::vector<std::vector<std::uint32_t>> succ(n);
  std::vector<char> linked(static_cast<std::size_t>(maxTid) + 1);
  for (std::size_t i = 1; i < n; ++i) {
    std::fill(linked.begin(), linked.end(), 0);
    std::size_t threadsLinked = 0;
    for (std::size_t j = i; j-- > 0 && threadsLinked <= maxTid;) {
      const ThreadId t = s[j];
      if (linked[t]) continue;
      if (t == s[i] ||
          result.stepFootprints[j].dependentWith(result.stepFootprints[i])) {
        succ[j].push_back(static_cast<std::uint32_t>(i));
        ++indeg[i];
        linked[t] = 1;
        ++threadsLinked;
      }
    }
    // Enabledness edge (see the doc comment above): the last step executed
    // while s[i]'s thread was not in the choice set enabled it.  Earlier
    // disabled periods are covered inductively through the program-order
    // predecessor's own enabledness edge.
    for (std::size_t j = i; j-- > 0;) {
      if (s[j] == s[i]) break;
      const std::span<const ThreadId> cs = result.choiceSets[j];
      if (std::find(cs.begin(), cs.end(), s[i]) == cs.end()) {
        succ[j].push_back(static_cast<std::uint32_t>(i));
        ++indeg[i];
        break;
      }
    }
  }

  using Ready = std::pair<ThreadId, std::uint32_t>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push({s[i], static_cast<std::uint32_t>(i)});
  }
  std::vector<ThreadId> out;
  out.reserve(n);
  while (!ready.empty()) {
    const auto [tid, i] = ready.top();
    ready.pop();
    out.push_back(tid);
    for (std::uint32_t k : succ[i]) {
      if (--indeg[k] == 0) ready.push({s[k], k});
    }
  }
  return out;
}

ExhaustiveExplorer::Stats ExhaustiveExplorer::explore(const Program& program,
                                                      const RunCallback& cb) const {
  std::size_t workers = opts_.workers;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  const bool dporMode = opts_.reduction == Reduction::Dpor;
  const bool sleepMode = opts_.reduction == Reduction::Sleep;
  // DPOR ignores the fingerprint dedup table (a state's backtrack set
  // depends on the races along the path that reached it).
  const bool fpPruning = opts_.fingerprintPruning && !dporMode;
  const bool captureState = fpPruning || opts_.reduction != Reduction::None;
  // Per-step state hashing is paid only by its one reader, the dedup table.
  const bool captureFingerprints = fpPruning;
  // Incremental exploration needs copyable fiber stacks; without them every
  // worker silently uses plain prefix replay.
  const bool incrementalMode = opts_.incremental && fibersSupported();
  // Flipped (once, by whichever worker discovers it) when the program turns
  // out not to be snapshot-safe, or a session detects mid-run object-graph
  // mutation: every run from then on takes the replay path.
  std::atomic<bool> snapshotUnsafe{false};

  WorkStealQueue<WorkItem> queue(workers);
  PrefixArena arena(workers);
  VisitedSet visited;
  std::atomic<std::uint64_t> runsClaimed{0};
  std::atomic<bool> budgetExhausted{false};
  std::atomic<bool> stoppedByCallback{false};
  std::mutex cbMu;        // serializes the user run callback
  std::mutex progressMu;  // serializes onProgress (heartbeats never touch cbMu)
  std::mutex mergeMu;     // guards the merged Stats
  Stats stats;
  bool mergedHasFailure = false;
  std::uint64_t fpLookupsTotal = 0;
  // Incremental-session tallies (merged under mergeMu like everything else).
  std::uint64_t snapStores = 0;
  std::uint64_t snapEvictions = 0;
  std::uint64_t snapBudgetSkips = 0;
  std::uint64_t incrementalFallbacksTotal = 0;
  std::size_t snapRetainedBytes = 0;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  obs::Registry* const metrics = opts_.metrics;
  // Resolve histogram handles once; per-run observes are relaxed atomics.
  obs::Histogram* const runStepsH =
      metrics != nullptr ? &metrics->histogram("explorer.run_steps") : nullptr;
  obs::Histogram* const runsPerWorkerH =
      metrics != nullptr ? &metrics->histogram("explorer.runs_per_worker")
                         : nullptr;
  obs::Histogram* const utilizationH =
      metrics != nullptr
          ? &metrics->histogram("explorer.worker_utilization_pct")
          : nullptr;

  auto elapsedSecSince = [](Clock::time_point from) {
    return std::chrono::duration<double>(Clock::now() - from).count();
  };

  auto worker = [&](std::size_t self) {
    LocalStats local;
    // The worker's incremental session, built lazily on its first run (the
    // constructor executes the program once to build the object graph and
    // learn whether it declared itself snapshot-safe).  Work stolen from
    // another worker restores from whatever THIS session has checkpointed —
    // at worst a shallower ancestor plus gap replay, never wrong.
    std::unique_ptr<IncrementalRunner> incRunner;
    // Reusable per-worker scratch: the materialized prefix lent to
    // PrefixReplayStrategy, the executed spine's tree nodes, and (DPOR)
    // the ancestor chain of the current work item.
    std::vector<ThreadId> prefixBuf;
    std::vector<const PrefixNode*> spineBuf;
    std::vector<const PrefixNode*> chainBuf;
    std::vector<char> seenTid;
    // Children branched by the current run, published to the queue in one
    // batch only after the whole branch analysis has finished.  This is
    // load-bearing for DPOR counter determinism, not just a lock-traffic
    // optimization: a child made visible mid-analysis can be stolen, run
    // (instantly, under incremental exploration) and analyzed while its
    // parent's analysis is still claiming branches — and whichever side
    // wins a shared tryClaim installs ITS sleep set on the new node,
    // making prune counts depend on thread timing.  Deferring publication
    // guarantees every claim an analysis makes settles before any child of
    // that analysis can contend for it, which restores the ordering the
    // serial explorer gets for free.
    std::vector<WorkItem> childBuf;
    // (DPOR) sleepAt[j - prefixLen] is the sleep set at decision point j of
    // the current run, re-evolved from the work item's node so backtrack
    // candidates can be tested against the state they would branch in.
    std::vector<std::vector<SleepEntry>> sleepAt;
    // The current run's result, reused so an incremental run's path data
    // keeps its capacity from run to run.
    RunResult result;
    const Clock::time_point workerStart = Clock::now();
    while (std::optional<WorkItem> item = queue.next(self)) {
      // Claim a slot in the run budget before executing.  fetch_add makes
      // the claim exact under contention: at most maxRuns runs execute.
      const std::uint64_t claimed = runsClaimed.fetch_add(1);
      if (claimed >= opts_.maxRuns) {
        budgetExhausted.store(true, std::memory_order_relaxed);
        queue.stop();
        if (incrementalMode) item->node->release();
        queue.done();
        continue;
      }

      if (opts_.progressIntervalRuns != 0 && opts_.onProgress &&
          (claimed + 1) % opts_.progressIntervalRuns == 0) {
        Progress p;
        p.runs = claimed + 1;
        p.queueDepth = queue.queuedApprox();
        p.steals = queue.steals();
        p.elapsedSec = elapsedSecSince(t0);
        p.runsPerSec = p.elapsedSec > 0.0
                           ? static_cast<double>(p.runs) / p.elapsedSec
                           : 0.0;
        std::lock_guard<std::mutex> g(progressMu);
        opts_.onProgress(p);
      }

      // With sleep sets, keep the displaced spine thread out of the child's
      // own first free pick: the transposed schedule then appears as a
      // sibling branch, where the independence check can prune it.
      const std::size_t prefixLen = item->node->depth;
      materializePrefix(item->node, prefixBuf);
      const ThreadId avoid =
          sleepMode ? item->sleepThread : events::kNoThread;
      Clock::time_point runStart;
      if (metrics != nullptr) runStart = Clock::now();
      bool ranIncremental = false;
      if (incrementalMode &&
          !snapshotUnsafe.load(std::memory_order_relaxed)) {
        if (incRunner == nullptr) {
          IncrementalRunner::Config rcfg;
          rcfg.maxSteps = opts_.maxSteps;
          rcfg.captureState = captureState;
          rcfg.captureFingerprints = captureFingerprints;
          rcfg.budgetBytes = opts_.snapshotBudgetBytes;
          rcfg.metrics = metrics;
          incRunner = std::make_unique<IncrementalRunner>(program, rcfg);
        }
        if (incRunner->usable()) {
          if (incRunner->run(result, item->node, prefixBuf, avoid,
                             opts_.maxBranchDepth, dporMode)) {
            ranIncremental = true;
          } else {
            ++local.incrementalFallbacks;
            snapshotUnsafe.store(true, std::memory_order_relaxed);
          }
        } else {
          ++local.incrementalFallbacks;
          snapshotUnsafe.store(true, std::memory_order_relaxed);
        }
      }
      if (!ranIncremental) {
        PrefixReplayStrategy strategy(prefixBuf.data(), prefixBuf.size(),
                                      avoid);
        VirtualScheduler::Options schedOpts;
        schedOpts.maxSteps = opts_.maxSteps;
        schedOpts.captureState = captureState;
        schedOpts.captureFingerprints = captureFingerprints;
        schedOpts.metrics = metrics;
        if (dporMode) {
          // The node's stored sleep set is valid just before its last
          // replayed step; the scheduler replays the wake rule from there
          // and keeps sleeping threads out of every free pick.
          schedOpts.sleepSet = item->node->sleep;
          schedOpts.sleepProcessFrom = prefixLen > 0 ? prefixLen - 1 : 0;
          schedOpts.sleepFilterFrom = prefixLen;
          schedOpts.sleepFilterTo = opts_.maxBranchDepth;
        }
        VirtualScheduler sched(strategy, schedOpts);
        program(sched);
        result = sched.run();
      }
      if (metrics != nullptr) {
        local.busyNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 runStart)
                .count());
        runStepsH->observe(result.schedule.size());
      }

      ++local.runs;
      if (result.sleepPruned) {
        // The run stopped at an all-asleep decision point: it is a
        // redundant prefix, not a leaf of the reduced tree.  It still
        // consumed a run-budget slot and its executed steps still get race
        // analysis below, but it reports no outcome and sees no callback.
        ++local.prunedBranches;
        ++local.sleepBlockedRuns;
      } else {
        switch (result.outcome) {
          case Outcome::Completed: ++local.completed; break;
          case Outcome::Deadlock: ++local.deadlocks; break;
          case Outcome::StepLimit: ++local.stepLimited; break;
          case Outcome::Exception: ++local.exceptions; break;
        }
        if (result.outcome != Outcome::Completed) {
          if (dporMode) {
            std::vector<ThreadId> witness = canonicalTraceWitness(result);
            if (!local.hasFailure || witness < local.firstFailure) {
              local.hasFailure = true;
              local.firstFailure = std::move(witness);
              local.firstFailureOutcome = result.outcome;
            }
          } else if (!local.hasFailure ||
                     result.schedule < local.firstFailure) {
            local.hasFailure = true;
            local.firstFailure = result.schedule;
            local.firstFailureOutcome = result.outcome;
          }
        }

        if (cb) {
          std::lock_guard<std::mutex> g(cbMu);
          if (!stoppedByCallback.load(std::memory_order_relaxed) &&
              !cb(result.schedule, result)) {
            stoppedByCallback.store(true, std::memory_order_relaxed);
            queue.stop();
          }
        }
      }

      if (!queue.stopped()) {
        const std::size_t branchLimit =
            std::min(result.choiceSets.size(), opts_.maxBranchDepth);

        // (DPOR) Re-evolve the sleep set across the executed steps so that
        // sleepSetAt(j) — the set valid just before step j — is available
        // for every decision point a backtrack could land on, which is
        // only ever below the branch bound.  For points inside the
        // replayed prefix the ancestor nodes carry their stored sets; past
        // the prefix the wake rule is replayed step by step (exactly what
        // the scheduler just did while filtering picks).
        std::size_t analysisLen = 0;
        if (dporMode) {
          if (result.schedule.size() > prefixLen) {
            item->node->tryClaim(result.schedule[prefixLen]);
          }
          materializeChain(item->node, chainBuf);
          analysisLen =
              std::min({result.schedule.size(), result.stepFootprints.size(),
                        result.choiceSets.size(), kDporAnalysisWindow});
          const std::size_t sleepLen = std::min(analysisLen, branchLimit);
          sleepAt.resize(sleepLen > prefixLen ? sleepLen - prefixLen : 0);
          for (std::size_t j = prefixLen; j < sleepLen; ++j) {
            std::vector<SleepEntry>& dst = sleepAt[j - prefixLen];
            dst.clear();
            if (j == 0) continue;  // the root's sleep set is empty
            const std::vector<SleepEntry>& prev =
                j == prefixLen ? item->node->sleep
                               : sleepAt[j - prefixLen - 1];
            const Footprint& fp = result.stepFootprints[j - 1];
            const ThreadId ran = result.schedule[j - 1];
            for (const SleepEntry& e : prev) {
              if (e.tid != ran && !e.fp.dependentWith(fp)) dst.push_back(e);
            }
          }
        }
        auto sleepSetAt =
            [&](std::size_t j) -> const std::vector<SleepEntry>& {
          return j < prefixLen ? chainBuf[j + 1]->sleep
                               : sleepAt[j - prefixLen];
        };

        // Nodes of this run's executed spine, built lazily from the work
        // item's node: spineAt(d) is the prefix-tree node for
        // schedule[0..d), d >= prefixLen.  Under DPOR each built node also
        // claims its spine continuation in the parent's expansion mask, so
        // backtracking elsewhere cannot re-enqueue this very run, and
        // records the sleep set valid before its last step.
        spineBuf.clear();
        spineBuf.push_back(item->node);
        auto spineAt = [&](std::size_t d) -> const PrefixNode* {
          while (prefixLen + spineBuf.size() <= d) {
            const std::size_t at = prefixLen + spineBuf.size() - 1;
            PrefixNode* n =
                arena.child(self, spineBuf.back(), result.schedule[at]);
            if (dporMode) {
              n->sleep = sleepSetAt(at);
              if (at + 1 < result.schedule.size()) {
                n->tryClaim(result.schedule[at + 1]);
              }
            }
            // A checkpoint taken at this depth during the run was parked by
            // depth (its node did not exist yet); key it to the node so the
            // children branched off it can restore instead of replay.
            if (ranIncremental) incRunner->bind(n);
            spineBuf.push_back(n);
          }
          return spineBuf[d - prefixLen];
        };

        if (dporMode) {
          // Source-set DPOR: instead of enqueueing every untried sibling,
          // scan the executed schedule for races — pairs of dependent steps
          // by different threads — and enqueue only the reversals they
          // demand.  For each step i and each other thread, that thread's
          // *last* step dependent with i is the race to reverse (earlier
          // races are reversed transitively when the new runs are
          // re-analyzed); the candidate set at decision point j is the
          // racing thread itself if it was enabled there, else
          // conservatively every enabled thread (Flanagan–Godefroid).
          // tryClaim makes each (decision point, thread) branch enqueue
          // exactly-once across all workers.
          //
          // Steps before prefixLen-1 replayed identical schedules in the
          // ancestor runs that built this prefix, so their races were
          // analyzed there against the same tree nodes; analysis starts at
          // the first step this run is the first to execute.  Runs longer
          // than kDporAnalysisWindow (runaway step-limit runs) only get
          // their head analyzed — bounded exploration keeps real runs far
          // below the window.
          //
          // The backward scan starts below the branch bound: a race with a
          // step at j >= branchLimit cannot be reversed (the bound forbids
          // branching at j), and it must not shadow an earlier dependent
          // step of the same thread below the bound either — with j cut
          // off, the transitive path through reversing j is gone and the
          // earlier race must be reversed directly.
          ThreadId maxTid = 0;
          for (std::size_t i = 0; i < analysisLen; ++i) {
            maxTid = std::max(maxTid, result.schedule[i]);
          }
          const std::size_t first = prefixLen > 0 ? prefixLen - 1 : 0;
          for (std::size_t i = std::max<std::size_t>(first, 1); i < analysisLen;
               ++i) {
            const ThreadId p = result.schedule[i];
            seenTid.assign(static_cast<std::size_t>(maxTid) + 1, 0);
            seenTid[p] = 1;  // own thread: program order, not a race
            std::size_t threadsSeen = 1;
            for (std::size_t j = std::min(i, branchLimit);
                 j-- > 0 && threadsSeen <= maxTid;) {
              const ThreadId t = result.schedule[j];
              if (seenTid[t]) continue;
              if (!result.stepFootprints[j].dependentWith(
                      result.stepFootprints[i])) {
                continue;
              }
              seenTid[t] = 1;
              ++threadsSeen;
              const std::span<const ThreadId> enabled = result.choiceSets[j];
              if (enabled.size() <= 1) continue;
              const PrefixNode* at = j < prefixLen ? chainBuf[j] : spineAt(j);
              const std::vector<SleepEntry>& asleep = sleepSetAt(j);
              auto backtrack = [&](ThreadId q) {
                if (q == result.schedule[j]) return;
                for (const SleepEntry& e : asleep) {
                  if (e.tid == q) {
                    // q's step here is covered by the sibling that put it
                    // to sleep — reversing this race is redundant.
                    ++local.prunedBranches;
                    return;
                  }
                }
                if (!at->tryClaim(q)) return;
                PrefixNode* ch = arena.child(self, at, q);
                // FG sleep inheritance: the branch that ran first at this
                // decision point goes to sleep in every later sibling (its
                // reordering with q is covered by its own subtree).
                ch->sleep = asleep;
                ch->sleep.push_back(
                    SleepEntry{result.schedule[j], result.stepFootprints[j]});
                WorkItem child;
                child.node = ch;
                childBuf.push_back(std::move(child));
                ++local.dporBacktracks;
              };
              if (std::find(enabled.begin(), enabled.end(), p) !=
                  enabled.end()) {
                backtrack(p);
              } else {
                for (ThreadId q : enabled) backtrack(q);
              }
            }
          }
        } else {
          // Branch: for every decision point past the replayed prefix where
          // more than one thread was runnable, queue the untried siblings.
          // Descending outer order + LIFO own-pop keeps the serial (workers
          // == 1) traversal bit-identical to the legacy recursive DFS.
          for (std::size_t i = branchLimit; i-- > prefixLen;) {
            const std::span<const ThreadId> choices = result.choiceSets[i];
            if (choices.size() <= 1) continue;

            if (fpPruning) {
              // Key on (depth, fingerprint): the insert is exactly-once
              // across all workers, so whichever run reaches the state first
              // expands it and every other run skips it — the total branch
              // count is the same regardless of who wins.
              ++local.fpLookups;
              const std::uint64_t key =
                  fpMix(fpMix(kFpSeed, i), result.fingerprints[i]);
              if (!visited.insert(key)) {
                ++local.dedupedStates;
                local.prunedBranches += choices.size() - 1;
                continue;
              }
            }

            const PrefixNode* at = spineAt(i);
            for (ThreadId alt : choices) {
              if (alt == result.schedule[i]) continue;
              if (sleepMode && i == prefixLen && prefixLen > 0 &&
                  alt == item->sleepThread &&
                  result.stepFootprints[prefixLen - 1].independentWith(
                      item->sleepFp)) {
                // First step of this child is independent of the spine step
                // it displaced; swapping them back reaches a state already
                // covered by the parent's subtree.
                ++local.prunedBranches;
                continue;
              }
              WorkItem child;
              child.node = arena.child(self, at, alt);
              if (sleepMode) {
                child.sleepThread = result.schedule[i];
                child.sleepFp = result.stepFootprints[i];
              }
              childBuf.push_back(std::move(child));
            }
          }
        }
        if (incrementalMode) {
          // Checkpoint lifetime (PrefixNode::live): children become live
          // before anyone can see them, and this run's node is released
          // only after they are queued, so no node on a queued item's path
          // is ever momentarily dead.
          for (const WorkItem& child : childBuf) child.node->retain();
        }
        queue.pushAll(self, childBuf);
      }
      if (incrementalMode) item->node->release();

      queue.done();
    }

    if (metrics != nullptr) {
      runsPerWorkerH->observe(local.runs);
      const double wallSec = elapsedSecSince(workerStart);
      const double busySec = static_cast<double>(local.busyNs) * 1e-9;
      if (wallSec > 0.0) {
        utilizationH->observe(static_cast<std::uint64_t>(
            std::min(100.0, 100.0 * busySec / wallSec)));
      }
    }

    std::lock_guard<std::mutex> g(mergeMu);
    stats.runs += local.runs;
    stats.completed += local.completed;
    stats.deadlocks += local.deadlocks;
    stats.stepLimited += local.stepLimited;
    stats.exceptions += local.exceptions;
    stats.prunedBranches += local.prunedBranches;
    stats.dedupedStates += local.dedupedStates;
    stats.dporBacktracks += local.dporBacktracks;
    stats.sleepBlockedRuns += local.sleepBlockedRuns;
    fpLookupsTotal += local.fpLookups;
    incrementalFallbacksTotal += local.incrementalFallbacks;
    if (incRunner != nullptr) {
      const IncrementalRunner::Tally& t = incRunner->tally();
      stats.snapshotRestores += t.restores;
      stats.replayStepsAvoided += t.replayStepsAvoided;
      stats.snapshotPeakBytes = std::max(stats.snapshotPeakBytes, t.peakBytes);
      snapStores += t.stores;
      snapEvictions += t.evictions;
      snapBudgetSkips += t.budgetSkips;
      snapRetainedBytes += t.retainedBytes;
    }
    if (local.hasFailure &&
        (!mergedHasFailure || local.firstFailure < stats.firstFailure)) {
      mergedHasFailure = true;
      stats.firstFailure = std::move(local.firstFailure);
      stats.firstFailureOutcome = local.firstFailureOutcome;
    }
  };

  WorkItem root;
  root.node = arena.root();
  if (incrementalMode) root.node->retain();
  queue.push(0, std::move(root));  // the root: the empty prefix

  std::vector<std::thread> extra;
  extra.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    extra.emplace_back(worker, w);
  }
  worker(0);  // the calling thread is worker 0
  for (std::thread& t : extra) t.join();

  stats.exhausted = !budgetExhausted.load() && !stoppedByCallback.load();
  stats.stoppedByCallback = stoppedByCallback.load();

  if (metrics != nullptr) {
    const double elapsedSec = elapsedSecSince(t0);
    metrics->counter("explorer.runs").add(stats.runs);
    metrics->counter("explorer.completed").add(stats.completed);
    metrics->counter("explorer.deadlocks").add(stats.deadlocks);
    metrics->counter("explorer.step_limited").add(stats.stepLimited);
    metrics->counter("explorer.exceptions").add(stats.exceptions);
    metrics->counter("explorer.pruned_branches").add(stats.prunedBranches);
    metrics->counter("explorer.deduped_states").add(stats.dedupedStates);
    metrics->counter("explorer.dpor_backtracks").add(stats.dporBacktracks);
    metrics->counter("explorer.sleep_blocked_runs")
        .add(stats.sleepBlockedRuns);
    metrics->counter("explorer.steals").add(queue.steals());
    metrics->counter("explorer.steal_batch").add(queue.stealBatches());
    metrics->gauge("explorer.workers").set(static_cast<double>(workers));
    metrics->gauge("explorer.elapsed_sec").set(elapsedSec);
    metrics->gauge("explorer.runs_per_sec")
        .set(elapsedSec > 0.0 ? static_cast<double>(stats.runs) / elapsedSec
                              : 0.0);
    // Fraction of fingerprint probes that hit an already-expanded state.
    // 0 when pruning is off (no probes).
    metrics->gauge("explorer.dedup_hit_rate")
        .set(fpLookupsTotal > 0
                 ? static_cast<double>(stats.dedupedStates) /
                       static_cast<double>(fpLookupsTotal)
                 : 0.0);
    metrics->gauge("explorer.queue_depth")
        .set(static_cast<double>(queue.queuedApprox()));
    metrics->gauge("explorer.prefix_arena_bytes")
        .set(static_cast<double>(arena.bytes()));
    metrics->gauge("explorer.visited_load_factor").set(visited.loadFactor());
    // Companion to the aggregate: the fullest stripe's occupancy, exposing
    // shard imbalance the mean load factor averages away.
    metrics->gauge("explorer.visited_load_factor_peak_shard")
        .set(visited.maxShardLoadFactor());
    metrics->counter("explorer.snapshot_restores").add(stats.snapshotRestores);
    metrics->counter("explorer.snapshot_stores").add(snapStores);
    metrics->counter("explorer.snapshot_evictions").add(snapEvictions);
    metrics->counter("explorer.snapshot_budget_skips").add(snapBudgetSkips);
    metrics->counter("explorer.replay_steps_avoided")
        .add(stats.replayStepsAvoided);
    metrics->counter("explorer.incremental_fallbacks")
        .add(incrementalFallbacksTotal);
    metrics->gauge("explorer.snapshot_bytes")
        .set(static_cast<double>(snapRetainedBytes));
    metrics->gauge("explorer.snapshot_bytes_peak")
        .set(static_cast<double>(stats.snapshotPeakBytes));
  }
  return stats;
}

}  // namespace confail::sched
