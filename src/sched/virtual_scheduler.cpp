#include "confail/sched/virtual_scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "confail/obs/metrics.hpp"

// Fiber support: a register-only stack switch (fiber_switch_x86_64.S) with
// raw stack-image copies.  Only x86-64 System V has a switch; other targets
// (aarch64 included) take the documented replay path.  Stack switching is
// also incompatible with TSan/ASan shadow-stack bookkeeping.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CONFAIL_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CONFAIL_SANITIZED 1
#endif
#endif

#if defined(__linux__) && defined(__x86_64__) && !defined(CONFAIL_SANITIZED)
#define CONFAIL_FIBERS 1
#include <cxxabi.h>
// fiber_switch_x86_64.S: push the callee-saved registers and FP control
// words, store the stack pointer through saveSp, load loadSp, pop, return.
extern "C" void confail_fiber_switch(void** saveSp, void* loadSp);
// The caller's MXCSR (low 32 bits) and x87 control word (bits 32-47).
extern "C" std::uint64_t confail_fiber_fp_control();
#endif

namespace confail::sched {

namespace {
// The logical thread currently executing on this real thread (if any).
struct TlsBinding {
  VirtualScheduler* sched = nullptr;
  void* record = nullptr;
};
thread_local TlsBinding tlsBinding;

#ifdef CONFAIL_FIBERS
// Stacks only need to hold the scenario bodies plus exception unwinding;
// the *captured* portion per snapshot is just [saved SP, top): a suspended
// fiber's last frame is the switch's own register save area, and nothing
// live lies below it (the call into the switch clobbered the red zone).
constexpr std::size_t kFiberStackBytes = 256 * 1024;

/// Build the frame a fresh fiber is first switched into: the switch pops
/// the FP control slot and six zeroed callee-saved registers, then returns
/// into `entry` with the stack aligned as at any function entry.  The zero
/// above it is `entry`'s return address, which ends unwinder walks; `entry`
/// never returns.
void* initialFrame(char* stack, std::size_t size, void (*entry)()) {
  auto top = reinterpret_cast<std::uintptr_t>(stack + size) &
             ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 9;
  frame[0] = confail_fiber_fp_control();
  for (int i = 1; i <= 6; ++i) frame[i] = 0;  // r15 r14 r13 r12 rbx rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(entry);
  frame[8] = 0;
  return frame;
}
#endif  // CONFAIL_FIBERS
}  // namespace

namespace detail {

/// The C++ runtime's per-thread exception state (__cxa_eh_globals, same
/// layout in libstdc++ and libc++abi): the stack of exceptions being
/// handled and the count of those still propagating.  Fibers share one OS
/// thread, so the controller swaps a fiber's own copy in around each
/// switch; otherwise a handler suspended at a schedule point would end
/// another fiber's exception.
struct EhState {
  void* caught = nullptr;
  unsigned int uncaught = 0;

#ifdef CONFAIL_FIBERS
  /// The calling OS thread's live state.
  static EhState& current() {
    return *reinterpret_cast<EhState*>(abi::__cxa_get_globals());
  }
#endif
};

/// One logical thread's frozen execution: the used top of its stack, whose
/// lowest bytes are the switch's saved registers.  Immutable; shared by
/// every snapshot taken while the fiber stayed suspended (version match).
struct StackImage {
  std::uint64_t version = 0;
  std::size_t used = 0;            ///< bytes saved at the top of the stack
  std::unique_ptr<char[]> bytes;   ///< copy of [stackTop - used, stackTop)
  void* sp = nullptr;              ///< the fiber's saved stack pointer
  EhState eh;                      ///< its exception state (Fiber::eh)
};

/// The fiber backing a logical thread in snapshot mode: its own stack and,
/// while suspended, the stack pointer the switch saved.  Every register it
/// needs to resume sits on the stack itself, so a stack image plus `sp`
/// restores it.
struct Fiber {
  std::unique_ptr<char[]> stack;
  std::size_t stackSize = 0;
  /// Stamp of the stack's current contents; bumped on every resume (the
  /// stack is about to change).  An image with an equal stamp is
  /// byte-identical to the live stack, so save and restore can skip it.
  std::uint64_t version = 0;
  std::shared_ptr<const StackImage> lastImage;
  void* sp = nullptr;
  EhState eh;  ///< this fiber's exception state while it is suspended
};

/// Controller-side stack pointer the running fiber switches back to.
struct FiberRt {
  void* controllerSp = nullptr;
};

}  // namespace detail

bool fibersSupported() noexcept {
#ifdef CONFAIL_FIBERS
  return true;
#else
  return false;
#endif
}

VirtualScheduler::ThreadRecord::ThreadRecord(ThreadId id_, std::string name_)
    : id(id_), name(std::move(name_)) {}

VirtualScheduler::ThreadRecord::~ThreadRecord() = default;

const char* blockKindName(BlockKind k) {
  switch (k) {
    case BlockKind::None: return "none";
    case BlockKind::LockAcquire: return "lock-acquire";
    case BlockKind::CondWait: return "cond-wait";
    case BlockKind::ClockAwait: return "clock-await";
    case BlockKind::Join: return "join";
    case BlockKind::Custom: return "custom";
  }
  return "?";
}

const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Completed: return "completed";
    case Outcome::Deadlock: return "deadlock";
    case Outcome::StepLimit: return "step-limit";
    case Outcome::Exception: return "exception";
  }
  return "?";
}

VirtualScheduler::VirtualScheduler(Strategy& strategy, Options opts)
    : strategy_(strategy), opts_(opts) {
  if (opts_.fibers) {
    CONFAIL_CHECK(fibersSupported(), UsageError,
                  "fiber mode is unsupported on this platform/build");
    fiberRt_ = std::make_unique<detail::FiberRt>();
  }
}

VirtualScheduler::~VirtualScheduler() {
  if (!finished_) {
    // run() was never called (or aborted mid-construction of a test):
    // tear down parked workers so their std::threads can be joined.
    abortRun();
  }
  for (auto& rec : threads_) {
    if (rec->real.joinable()) rec->real.join();
  }
}

ThreadId VirtualScheduler::spawn(std::string name, std::function<void()> fn) {
  CONFAIL_CHECK(!finished_ && !aborting_, UsageError,
                "spawn after the run finished");
  // A mid-run spawn changes the runnable universe for every later decision
  // and allocates a thread id whose value depends on spawn order: never
  // treat the spawning step as independent of anything.
  if (onLogicalThread()) noteGlobalEffect();
  const ThreadId id = static_cast<ThreadId>(threads_.size());
  auto rec = std::make_unique<ThreadRecord>(id, std::move(name));
  rec->fn = std::move(fn);
  ThreadRecord& r = *rec;
  threads_.push_back(std::move(rec));
  ++liveCount_;
  strategy_.onSpawn(id);
  if (opts_.fibers) {
#ifdef CONFAIL_FIBERS
    auto f = std::make_unique<detail::Fiber>();
    f->stackSize = kFiberStackBytes;
    f->stack = std::make_unique<char[]>(f->stackSize);
    f->version = nextSnapshotVersion();
    f->sp = initialFrame(f->stack.get(), f->stackSize,
                         &VirtualScheduler::fiberTrampoline);
    r.fiber = std::move(f);
#endif
  } else {
    r.real = std::thread([this, &r] { workerMain(r); });
  }
  return id;
}

void VirtualScheduler::workerMain(ThreadRecord& rec) {
  rec.sem.acquire();  // wait until first scheduled
  tlsBinding = TlsBinding{this, &rec};
  if (!aborting_) {
    try {
      rec.fn();
    } catch (const ExecutionAborted&) {
      // Normal teardown path; nothing to record.
    } catch (...) {
      rec.error = std::current_exception();
    }
  }
  finishSelf(rec);
}

void VirtualScheduler::fiberTrampoline() {
  // The controller publishes {scheduler, record} through the TLS binding
  // immediately before swapping a fiber in for the first time; fibers run
  // on the controller's own OS thread, so the binding is already ours.
  auto* sched = tlsBinding.sched;
  auto* rec = static_cast<ThreadRecord*>(tlsBinding.record);
  CONFAIL_ASSERT(sched != nullptr && rec != nullptr,
                 "fiber started without a TLS binding");
  sched->fiberMain(*rec);
  // fiberMain's final swap back to the controller never returns: resuming
  // a finished fiber is a scheduler bug.
  std::abort();
}

void VirtualScheduler::fiberMain(ThreadRecord& rec) {
#ifdef CONFAIL_FIBERS
  if (!aborting_) {
    try {
      rec.fn();
    } catch (const ExecutionAborted&) {
      // Normal teardown path; nothing to record.
    } catch (...) {
      rec.error = std::current_exception();
    }
  }
  finishSelf(rec);
  confail_fiber_switch(&rec.fiber->sp, fiberRt_->controllerSp);
#else
  (void)rec;
#endif
}

void VirtualScheduler::finishSelf(ThreadRecord& rec) {
  rec.state = ThreadState::Finished;
  rec.blockKind = BlockKind::None;
  --liveCount_;
  // Wake any logical threads joined on us (only outside teardown; during
  // teardown the controller wakes everyone itself).  unblock() records the
  // join-resource footprint, so a finish that wakes joiners conflicts with
  // their joinThread() step as required.
  if (!aborting_) {
    for (ThreadId j : rec.joiners) {
      if (recordOf(j).state == ThreadState::Blocked) unblock(j);
    }
  }
  rec.joiners.clear();
  if (!rec.fiber) {
    // Thread-backed workers clear their own binding and wake the
    // controller; for fibers the controller's resumeThread() does both
    // when the final swap returns to it.
    tlsBinding = TlsBinding{};
    controllerSem_.release();
  }
}

void VirtualScheduler::runnableSet(std::vector<ThreadId>& out) const {
  out.clear();
  for (const auto& rec : threads_) {
    if (rec->state == ThreadState::Runnable) out.push_back(rec->id);
  }
}

VirtualScheduler::ThreadRecord& VirtualScheduler::recordOf(ThreadId t) {
  CONFAIL_ASSERT(t < threads_.size(), "bad thread id");
  return *threads_[t];
}

const VirtualScheduler::ThreadRecord& VirtualScheduler::recordOf(ThreadId t) const {
  CONFAIL_ASSERT(t < threads_.size(), "bad thread id");
  return *threads_[t];
}

RunResult VirtualScheduler::run() {
  CONFAIL_CHECK(!finished_, UsageError, "run() called twice");
  CONFAIL_CHECK(!onLogicalThread(), UsageError,
                "run() called from a logical thread");
  RunResult result;
  std::uint64_t contextSwitches = 0;
  runLoop(result, contextSwitches);
  abortRun();
  finished_ = true;
  for (auto& rec : threads_) {
    if (rec->real.joinable()) rec->real.join();
  }
  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("sched.runs").inc();
    opts_.metrics->counter("sched.steps").add(result.steps);
    opts_.metrics->counter("sched.context_switches").add(contextSwitches);
  }
  return result;
}

void VirtualScheduler::runLoop(RunResult& result,
                               std::uint64_t& contextSwitches) {
  // Pre-size the per-step traces for a typical run (dozens of steps), so
  // short runs never reallocate and long ones grow geometrically.  A
  // reused result (the incremental runner's) already has the capacity and
  // reserves nothing; the hint stays small because such a result holds
  // its buffers for the whole exploration, on every worker.
  const std::size_t reserveSteps =
      static_cast<std::size_t>(std::min<std::uint64_t>(opts_.maxSteps, 256));
  if (result.schedule.capacity() < reserveSteps) {
    result.schedule.reserve(reserveSteps);
    result.choiceSets.reserve(reserveSteps);
    if (opts_.captureFingerprints) result.fingerprints.reserve(reserveSteps);
    if (opts_.captureState) result.stepFootprints.reserve(reserveSteps);
  }
  // The incremental runner pre-seeds `result` with a restored prefix; a
  // fresh run() starts empty.  Context switches are counted across the
  // seam so the tally matches a from-scratch execution of the same path.
  ThreadId lastPick =
      result.schedule.empty() ? events::kNoThread : result.schedule.back();
  // Live DPOR sleep set (see Options::sleepSet); entries are erased as
  // executed steps wake them.  Empty for every caller but the DPOR
  // explorer, in which case all the sleep branches below are dead.
  std::vector<SleepEntry>& sleep = sleep_;
  sleep = opts_.sleepSet;
  std::vector<ThreadId>& runnable = runnable_;
  std::vector<ThreadId>& awake = awake_;  // filtered-runnable scratch

  for (;;) {
    runnableSet(runnable);
    if (runnable.empty()) {
      if (liveCount_ == 0) {
        result.outcome = Outcome::Completed;
        break;
      }
      // Give idle handlers (e.g. the abstract clock) a chance to advance
      // logical time and unblock awaiters before declaring deadlock.
      bool progressed = false;
      for (IdleHandler* h : idleHandlers_) {
        if (h->onIdle()) {
          progressed = true;
          break;
        }
      }
      if (progressed) {
        // Idle-handler progress (abstract-clock advance) changes blocked
        // threads behind the back of the step that led here: poison the
        // preceding step so it never passes an independence check.
        if (opts_.captureState && !result.stepFootprints.empty()) {
          result.stepFootprints.back().global = true;
        }
        continue;
      }
      result.outcome = Outcome::Deadlock;
      for (const auto& rec : threads_) {
        if (rec->state == ThreadState::Blocked) {
          result.blocked.push_back(BlockedThreadInfo{
              rec->id, rec->name, rec->blockKind, rec->blockResource});
        }
      }
      break;
    }

    if (result.steps >= opts_.maxSteps) {
      result.outcome = Outcome::StepLimit;
      break;
    }

    // Sleep filtering: from sleepFilterFrom on, the strategy only sees
    // threads that are not asleep.  An all-asleep decision point means
    // every continuation from here is covered by a sibling branch — stop
    // the run; the explorer treats it as a pruned (non-leaf) execution.
    const std::vector<ThreadId>* pickable = &runnable;
    if (!sleep.empty() && result.steps >= opts_.sleepFilterFrom &&
        result.steps < opts_.sleepFilterTo) {
      awake.clear();
      for (ThreadId t : runnable) {
        bool asleep = false;
        for (const SleepEntry& e : sleep) {
          if (e.tid == t) {
            asleep = true;
            break;
          }
        }
        if (!asleep) awake.push_back(t);
      }
      if (awake.empty()) {
        result.outcome = Outcome::Completed;
        result.sleepPruned = true;
        break;
      }
      pickable = &awake;
    }

    // A step is definitely about to execute from this state: let the
    // incremental runner checkpoint it as a branch-resume point.
    if (checkpointHook_) checkpointHook_(result.steps, runnable.size());

    ThreadId pick;
    try {
      pick = strategy_.pick(*pickable, result.steps);
    } catch (const Error& e) {
      result.outcome = Outcome::Exception;
      result.errorMessage = e.what();
      break;
    }
    CONFAIL_ASSERT(
        std::binary_search(runnable.begin(), runnable.end(), pick),
        "strategy picked a non-runnable thread");

    result.schedule.push_back(pick);
    result.choiceSets.push_back(runnable);
    ++result.steps;
    if (lastPick != events::kNoThread && pick != lastPick) ++contextSwitches;
    lastPick = pick;
    if (opts_.captureFingerprints) result.fingerprints.push_back(fingerprint());
    if (opts_.captureState) stepFootprint_.clear();

    ThreadRecord& rec = recordOf(pick);
    rec.state = ThreadState::Running;
    resumeThread(rec);
    if (opts_.captureState) result.stepFootprints.push_back(stepFootprint_);

    // Wake sleeping threads whose covered reordering just became
    // observable: an executed step dependent with the entry's footprint
    // (or the entry's own thread being scheduled) invalidates it.
    if (!sleep.empty() && opts_.captureState &&
        result.steps - 1 >= opts_.sleepProcessFrom) {
      const Footprint& executed = result.stepFootprints.back();
      for (std::size_t k = sleep.size(); k-- > 0;) {
        if (sleep[k].tid == pick || sleep[k].fp.dependentWith(executed)) {
          sleep.erase(sleep.begin() + static_cast<std::ptrdiff_t>(k));
        }
      }
    }

    if (rec.state == ThreadState::Finished && rec.error) {
      result.outcome = Outcome::Exception;
      try {
        std::rethrow_exception(rec.error);
      } catch (const std::exception& e) {
        result.errorMessage = e.what();
      } catch (...) {
        result.errorMessage = "unknown exception";
      }
      break;
    }
  }
}

void VirtualScheduler::abortRun() {
  aborting_ = true;
  for (auto& rec : threads_) {
    if (rec->state != ThreadState::Finished) {
      // Wake it; it will observe aborting_, throw ExecutionAborted through
      // the user stack (RAII releases any held resources) and finish.
      // Strictly sequential: wait for each to finish before waking the next
      // so that at most one logical thread ever executes at a time.
      resumeThread(*rec);
      CONFAIL_ASSERT(rec->state == ThreadState::Finished,
                     "aborted thread did not finish");
    }
  }
}

void VirtualScheduler::resumeThread(ThreadRecord& rec) {
  if (rec.fiber) {
#ifdef CONFAIL_FIBERS
    // The fiber's stack is about to change: no frozen image matches it
    // from here on.
    rec.fiber->version = nextSnapshotVersion();
    tlsBinding = TlsBinding{this, &rec};
    detail::EhState& eh = detail::EhState::current();
    const detail::EhState controllerEh = eh;
    eh = rec.fiber->eh;
    confail_fiber_switch(&fiberRt_->controllerSp, rec.fiber->sp);
    rec.fiber->eh = eh;
    eh = controllerEh;
    tlsBinding = TlsBinding{};
#endif
  } else {
    rec.sem.release();
    controllerSem_.acquire();
  }
}

void VirtualScheduler::checkAbort() const {
  if (aborting_) {
    throw ExecutionAborted("virtual scheduler run aborted");
  }
}

void VirtualScheduler::yield() {
  CONFAIL_ASSERT(onLogicalThread(), "yield off a logical thread");
  // During teardown a thread may pass a schedule point while unwinding
  // (e.g. a Synchronized destructor releasing a lock).  Yielding is
  // optional, so make it a no-op instead of throwing mid-unwind.
  if (aborting_) return;
  // Never park while an exception is propagating on this thread: if the
  // run were aborted while parked, the abort exception would collide with
  // the in-flight one and std::terminate.  Skipping the schedule point is
  // always safe.
  if (std::uncaught_exceptions() > 0) return;
  auto& rec = *static_cast<ThreadRecord*>(tlsBinding.record);
  rec.state = ThreadState::Runnable;
  switchToController(rec);
}

namespace {
// Footprint tag of a blocking resource: the rendezvous point between a
// block() and the unblock()/reblock() that releases it.
std::uint64_t blockTag(BlockKind kind, std::uint64_t resource) {
  return fpTag('b', (static_cast<std::uint64_t>(kind) << 56) ^ resource);
}
}  // namespace

void VirtualScheduler::block(BlockKind kind, std::uint64_t resource) {
  CONFAIL_ASSERT(onLogicalThread(), "block off a logical thread");
  checkAbort();
  noteAccess(blockTag(kind, resource), /*isWrite=*/true);
  auto& rec = *static_cast<ThreadRecord*>(tlsBinding.record);
  rec.state = ThreadState::Blocked;
  rec.blockKind = kind;
  rec.blockResource = resource;
  switchToController(rec);
}

void VirtualScheduler::switchToController(ThreadRecord& rec) {
  if (rec.fiber) {
#ifdef CONFAIL_FIBERS
    confail_fiber_switch(&rec.fiber->sp, fiberRt_->controllerSp);
#endif
  } else {
    controllerSem_.release();
    rec.sem.acquire();
  }
  checkAbort();
  CONFAIL_ASSERT(rec.state == ThreadState::Running,
                 "scheduled thread not marked running");
}

void VirtualScheduler::unblock(ThreadId t) {
  ThreadRecord& rec = recordOf(t);
  CONFAIL_ASSERT(rec.state == ThreadState::Blocked,
                 "unblock of a thread that is not blocked");
  noteAccess(blockTag(rec.blockKind, rec.blockResource), /*isWrite=*/true);
  rec.state = ThreadState::Runnable;
  rec.blockKind = BlockKind::None;
  rec.blockResource = 0;
}

void VirtualScheduler::joinThread(ThreadId t) {
  CONFAIL_ASSERT(onLogicalThread(), "joinThread off a logical thread");
  ThreadId self = currentThread();
  CONFAIL_CHECK(t != self, UsageError, "a thread cannot join itself");
  ThreadRecord& target = recordOf(t);
  if (target.state == ThreadState::Finished) return;
  target.joiners.push_back(self);
  block(BlockKind::Join, t);
}

void VirtualScheduler::reblock(ThreadId t, BlockKind kind,
                               std::uint64_t resource) {
  ThreadRecord& rec = recordOf(t);
  CONFAIL_ASSERT(rec.state == ThreadState::Blocked,
                 "reblock of a thread that is not blocked");
  noteAccess(blockTag(rec.blockKind, rec.blockResource), /*isWrite=*/true);
  noteAccess(blockTag(kind, resource), /*isWrite=*/true);
  rec.blockKind = kind;
  rec.blockResource = resource;
}

ThreadId VirtualScheduler::currentThread() const {
  if (tlsBinding.sched != this || tlsBinding.record == nullptr) {
    return events::kNoThread;
  }
  return static_cast<const ThreadRecord*>(tlsBinding.record)->id;
}

bool VirtualScheduler::onLogicalThread() const {
  return tlsBinding.sched == this && tlsBinding.record != nullptr;
}

const std::string& VirtualScheduler::threadName(ThreadId t) const {
  return recordOf(t).name;
}

BlockKind VirtualScheduler::blockKindOf(ThreadId t) const {
  return recordOf(t).blockKind;
}

std::size_t VirtualScheduler::threadCount() const { return threads_.size(); }

void VirtualScheduler::addIdleHandler(IdleHandler* h) {
  CONFAIL_ASSERT(h != nullptr, "null idle handler");
  idleHandlers_.push_back(h);
}

void VirtualScheduler::addFingerprintSource(const FingerprintSource* s) {
  CONFAIL_ASSERT(s != nullptr, "null fingerprint source");
  fingerprintSources_.push_back(s);
}

void VirtualScheduler::removeFingerprintSource(const FingerprintSource* s) {
  for (auto it = fingerprintSources_.begin(); it != fingerprintSources_.end();
       ++it) {
    if (*it == s) {
      fingerprintSources_.erase(it);
      return;
    }
  }
}

void VirtualScheduler::addSnapshotSource(SnapshotSource* s) {
  CONFAIL_ASSERT(s != nullptr, "null snapshot source");
  snapshotSources_.push_back(s);
  ++snapshotSourceGen_;
}

void VirtualScheduler::removeSnapshotSource(SnapshotSource* s) {
  for (auto it = snapshotSources_.begin(); it != snapshotSources_.end();
       ++it) {
    if (*it == s) {
      snapshotSources_.erase(it);
      ++snapshotSourceGen_;
      return;
    }
  }
}

std::shared_ptr<const VirtualScheduler::Snapshot>
VirtualScheduler::saveSnapshot() {
#ifdef CONFAIL_FIBERS
  CONFAIL_ASSERT(opts_.fibers && !onLogicalThread(),
                 "saveSnapshot outside a fiber session controller");
  auto snap = std::make_shared<Snapshot>();
  snap->threads.reserve(threads_.size());
  for (auto& recPtr : threads_) {
    ThreadRecord& rec = *recPtr;
    CONFAIL_ASSERT(rec.fiber != nullptr, "snapshot of a non-fiber thread");
    Snapshot::ThreadSnap ts;
    ts.state = rec.state;
    ts.blockKind = rec.blockKind;
    ts.blockResource = rec.blockResource;
    ts.joiners = rec.joiners;
    detail::Fiber& f = *rec.fiber;
    if (!f.lastImage || f.lastImage->version != f.version) {
      auto img = std::make_shared<detail::StackImage>();
      img->version = f.version;
      img->sp = f.sp;
      img->eh = f.eh;
      char* const top = f.stack.get() + f.stackSize;
      const char* from = static_cast<const char*>(f.sp);
      CONFAIL_ASSERT(from >= f.stack.get() && from < top,
                     "fiber stack pointer out of range");
      img->used = static_cast<std::size_t>(top - from);
      img->bytes = std::make_unique<char[]>(img->used);
      std::memcpy(img->bytes.get(), from, img->used);
      snap->freshBytes += img->used + sizeof(detail::StackImage);
      f.lastImage = std::move(img);
    }
    ts.stack = f.lastImage;
    snap->threads.push_back(std::move(ts));
  }
  snap->liveCount = liveCount_;
  snap->sources.reserve(snapshotSources_.size());
  for (SnapshotSource* s : snapshotSources_) {
    Snapshot::SourceSnap ss;
    ss.src = s;
    ss.payload = s->snapshotSave(ss.version, snap->freshBytes);
    snap->sources.push_back(std::move(ss));
  }
  snap->sourceGen = snapshotSourceGen_;
  return snap;
#else
  return nullptr;
#endif
}

bool VirtualScheduler::restoreSnapshot(const Snapshot& snap) {
#ifdef CONFAIL_FIBERS
  if (snap.sourceGen != snapshotSourceGen_ ||
      snap.threads.size() != threads_.size()) {
    // The program spawned threads or (un)registered sources mid-run: the
    // snapshot no longer describes this session's object graph.
    return false;
  }
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    ThreadRecord& rec = *threads_[i];
    const Snapshot::ThreadSnap& ts = snap.threads[i];
    rec.state = ts.state;
    rec.blockKind = ts.blockKind;
    rec.blockResource = ts.blockResource;
    rec.joiners = ts.joiners;
    rec.error = nullptr;
    detail::Fiber& f = *rec.fiber;
    const detail::StackImage& img = *ts.stack;
    if (f.version != img.version) {
      f.sp = img.sp;
      f.eh = img.eh;
      char* const top = f.stack.get() + f.stackSize;
      std::memcpy(top - img.used, img.bytes.get(), img.used);
      f.version = img.version;
      f.lastImage = ts.stack;
    }
  }
  liveCount_ = snap.liveCount;
  for (const Snapshot::SourceSnap& ss : snap.sources) {
    ss.src->snapshotRestore(ss.payload, ss.version);
  }
  stepFootprint_.clear();
  aborting_ = false;
  return true;
#else
  (void)snap;
  return false;
#endif
}

std::uint64_t VirtualScheduler::fingerprint() const {
  std::uint64_t h = kFpSeed;
  for (const auto& rec : threads_) {
    h = fpMix(h, (static_cast<std::uint64_t>(rec->state) << 40) ^
                     (static_cast<std::uint64_t>(rec->blockKind) << 32));
    h = fpMix(h, rec->blockResource);
  }
  for (const FingerprintSource* s : fingerprintSources_) {
    h = fpMix(h, s->stateFingerprint());
  }
  return h;
}

void VirtualScheduler::noteAccess(std::uint64_t tag, bool isWrite) {
  if (!opts_.captureState || !onLogicalThread()) return;
  if (isWrite) {
    stepFootprint_.addWrite(tag);
  } else {
    stepFootprint_.addRead(tag);
  }
}

void VirtualScheduler::noteGlobalEffect() {
  if (!opts_.captureState) return;
  stepFootprint_.global = true;
}

}  // namespace confail::sched
