#include "confail/monitor/monitor.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "confail/monitor/injection_hooks.hpp"

#include "confail/obs/metrics.hpp"
#include "confail/support/assert.hpp"

namespace confail::monitor {

using events::kNoMonitor;
using events::kNoThread;

const char* selectPolicyName(SelectPolicy p) {
  switch (p) {
    case SelectPolicy::Fifo: return "fifo";
    case SelectPolicy::Lifo: return "lifo";
    case SelectPolicy::Random: return "random";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Virtual-mode state: all blocking is VirtualScheduler state.
// Invariant: owner == kNoThread implies the entry queue is empty, because
// every release (unlock / wait) immediately hands the lock to a queued
// thread if one exists.
// ---------------------------------------------------------------------------
struct Monitor::VirtualState {
  ThreadId owner = kNoThread;
  std::uint32_t depth = 0;
  struct Entry {
    ThreadId tid;
    std::uint32_t restoreDepth;  // 1 for fresh lock, saved depth for wait
  };
  std::vector<Entry> entry;
  struct Waiter {
    ThreadId tid;
    std::uint32_t savedDepth;
  };
  std::vector<Waiter> waiters;
};

// ---------------------------------------------------------------------------
// Real-mode state: native mutex + two condition variables.
//
// The wait set is an explicit ticket list so that a notification can only
// be consumed by a thread that was in the wait set when notify was called
// (the JLS semantics).  A counting scheme is NOT sufficient: a thread that
// starts waiting after the notify could steal the signal from the intended
// waiter and both end up asleep — a lost-wakeup deadlock that manifests
// readily in producer/consumer ping-pong.
// ---------------------------------------------------------------------------
struct Monitor::RealState {
  std::mutex m;
  std::condition_variable entryCv;  // lock handoff
  std::condition_variable waitCv;   // wait set
  ThreadId owner = kNoThread;
  std::uint32_t depth = 0;
  std::uint64_t nextTicket = 0;
  std::deque<std::uint64_t> waitSet;     // outstanding waiter tickets, FIFO
  std::set<std::uint64_t> signaled;      // tickets released by notify
};

Monitor::Monitor(Runtime& rt, std::string name, Options opts)
    : rt_(rt), name_(std::move(name)), id_(rt.registerMonitor(name_)), opts_(opts) {
  if (rt_.isVirtual()) {
    v_ = std::make_unique<VirtualState>();
    rt_.scheduler().addStateSource(this);
  } else {
    r_ = std::make_unique<RealState>();
  }
  if (obs::Registry* m = rt_.metrics()) {
    contentionCounter_ = &m->counter("monitor.contention." + name_);
    waitCounter_ = &m->counter("monitor.wait." + name_);
    notifyCounter_ = &m->counter("monitor.notify." + name_);
  }
}

Monitor::~Monitor() {
  if (v_) {
    rt_.scheduler().removeStateSource(this);
  }
}

std::shared_ptr<const void> Monitor::saveState() const {
  return std::make_shared<VirtualState>(*v_);
}

void Monitor::restoreState(const std::shared_ptr<const void>& payload) {
  *v_ = *static_cast<const VirtualState*>(payload.get());
}

std::size_t Monitor::snapshotBytes() const {
  if (!v_) return 0;
  return sizeof(VirtualState) +
         v_->entry.capacity() * sizeof(VirtualState::Entry) +
         v_->waiters.capacity() * sizeof(VirtualState::Waiter);
}

std::uint64_t Monitor::stateFingerprint() const {
  if (!v_) return 0;
  const VirtualState& v = *v_;
  std::uint64_t h = sched::fpMix(sched::kFpSeed, sched::fpTag('m', id_));
  h = sched::fpMix(h, (static_cast<std::uint64_t>(v.owner) << 32) ^ v.depth);
  for (const VirtualState::Entry& e : v.entry) {
    h = sched::fpMix(h, (static_cast<std::uint64_t>(e.tid) << 32) ^
                            e.restoreDepth);
  }
  h = sched::fpMix(h, 0x9e3779b97f4a7c15ull);  // entry / wait-set separator
  for (const VirtualState::Waiter& w : v.waiters) {
    h = sched::fpMix(h, (static_cast<std::uint64_t>(w.tid) << 32) ^
                            w.savedDepth);
  }
  return h;
}

void Monitor::lock() {
  ThreadId self = rt_.currentThread();
  if (v_) vLock(self); else rLock(self);
}

void Monitor::unlock() {
  ThreadId self = rt_.currentThread();
  if (v_) vUnlock(self); else rUnlock(self);
}

void Monitor::wait() {
  ThreadId self = rt_.currentThread();
  if (v_) vWait(self); else rWait(self);
}

void Monitor::notifyOne() {
  ThreadId self = rt_.currentThread();
  if (v_) vNotify(self, /*all=*/false); else rNotify(self, /*all=*/false);
}

void Monitor::notifyAll() {
  ThreadId self = rt_.currentThread();
  if (v_) vNotify(self, /*all=*/true); else rNotify(self, /*all=*/true);
}

// ---------------------------------------------------------------------------
// Virtual mode
// ---------------------------------------------------------------------------

std::size_t Monitor::vSelect(std::size_t size, SelectPolicy policy) {
  CONFAIL_ASSERT(size > 0, "selection from empty queue");
  switch (policy) {
    case SelectPolicy::Fifo: return 0;
    case SelectPolicy::Lifo: return size - 1;
    case SelectPolicy::Random: return static_cast<std::size_t>(rt_.rngBelow(size));
  }
  return 0;
}

void Monitor::vLock(ThreadId self) {
  CONFAIL_CHECK(self != kNoThread, UsageError,
                "monitor used from outside a logical thread in virtual mode");
  VirtualState& v = *v_;
  if (v.owner == self) {
    // Reentrant entry: the object lock is already held; the Figure-1 model
    // (single lock token) fires nothing.
    snapshotBump();
    ++v.depth;
    return;
  }
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr) {
    switch (hooks->onLock(id_, self)) {
      case InjectionHooks::LockAction::Elide:
        // FF-T1: the thread proceeds as if it had entered the monitor —
        // no T1/T2, no mutual exclusion.  The matching unlock() arrives
        // as an onElidedUnlock() consultation.
        return;
      case InjectionHooks::LockAction::Starve:
        // FF-T2: the request fires but a grant never does.  The thread is
        // parked outside the entry queue (a queued thread would be granted
        // by the next release), so it starves even while the lock cycles.
        rt_.schedulePoint();
        rt_.emit(EventKind::LockRequest, id_, 0);  // T1, never answered
        if (contentionCounter_ != nullptr) contentionCounter_->inc();
        rt_.scheduler().block(sched::BlockKind::LockAcquire, id_);
        // Only reachable via run teardown (block() throws ExecutionAborted
        // for abandoned threads); nothing grants this request.
        return;
      case InjectionHooks::LockAction::Proceed:
        break;
    }
    // EF-T3/EF-T5: another thread arriving at the monitor is a wake
    // occasion for the wait set (the unlock site alone never sees waiters
    // in protocols where every exit notifies first).  If the lock is free
    // the moved waiter must be granted immediately — vLock's uncontended
    // path relies on "lock idle => entry queue empty".
    if (!v.waiters.empty()) {
      vInjectHookWake(*hooks);
      if (v.owner == kNoThread) vGrantNext();
    }
  }
  rt_.schedulePoint();  // allow preemption just before requesting the lock
  rt_.emit(EventKind::LockRequest, id_, 0);  // T1
  if (v.owner == kNoThread) {
    CONFAIL_ASSERT(v.entry.empty(), "lock idle but entry queue non-empty");
    snapshotBump();
    v.owner = self;
    v.depth = 1;
    rt_.emit(EventKind::LockAcquire, id_, 0);  // T2 (uncontended)
  } else {
    if (contentionCounter_ != nullptr) contentionCounter_->inc();
    snapshotBump();
    v.entry.push_back(VirtualState::Entry{self, 1});
    rt_.scheduler().block(sched::BlockKind::LockAcquire, id_);
    // vGrantNext() transferred ownership to us (and emitted T2) before the
    // scheduler resumed this thread.
    CONFAIL_ASSERT(v.owner == self && v.depth == 1, "lock handoff corrupted");
  }
  if (hooks != nullptr && hooks->releaseEarly(id_, self)) {
    // EF-T4: T4 fires the moment the lock is granted; the thread continues
    // its critical section unprotected and its eventual unlock() is
    // swallowed via onElidedUnlock().
    rt_.emit(EventKind::LockRelease, id_, 0);
    snapshotBump();
    v.owner = kNoThread;
    v.depth = 0;
    vGrantNext();
  }
}

void Monitor::vUnlock(ThreadId self) {
  VirtualState& v = *v_;
  if (rt_.scheduler().aborting()) {
    // Teardown: threads are being unwound one at a time and queued threads
    // may already have finished, so no events are emitted and no handoff is
    // attempted.  Just drop ownership if we held it.
    if (v.owner == self) {
      snapshotBump();
      v.owner = kNoThread;
      v.depth = 0;
    }
    return;
  }
  InjectionHooks* hooks = rt_.injection();
  if (v.owner != self) {
    if (hooks != nullptr && hooks->onElidedUnlock(id_, self)) return;
    throw IllegalMonitorState("unlock of monitor '" + name_ +
                              "' by a thread that does not own it");
  }
  if (v.depth > 1) {
    snapshotBump();
    --v.depth;  // inner exit of a reentrant region: lock stays held
    return;
  }
  if (hooks != nullptr && hooks->leakUnlock(id_, self)) {
    // FF-T4: the outermost release never fires.  Ownership is kept while
    // the thread walks away believing it released.
    rt_.schedulePoint();
    return;
  }
  rt_.emit(EventKind::LockRelease, id_, 0);  // T4
  snapshotBump();
  v.owner = kNoThread;
  v.depth = 0;
  vInjectSpuriousWakes();
  if (hooks != nullptr) vInjectHookWake(*hooks);
  vGrantNext();
  rt_.schedulePoint();  // natural preemption point after releasing
}

void Monitor::vGrantNext() {
  VirtualState& v = *v_;
  if (v.entry.empty()) return;
  CONFAIL_ASSERT(v.owner == kNoThread, "grant while lock held");
  std::size_t idx;
  std::size_t pick = 0;
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr && hooks->overrideGrant(id_, v.entry.size(), pick)) {
    CONFAIL_ASSERT(pick < v.entry.size(), "grant override out of range");
    idx = pick;  // EF-T2: the hook barges past the configured policy
  } else {
    idx = vSelect(v.entry.size(), opts_.grantPolicy);
  }
  snapshotBump();
  VirtualState::Entry e = v.entry[idx];
  v.entry.erase(v.entry.begin() + static_cast<std::ptrdiff_t>(idx));
  v.owner = e.tid;
  v.depth = e.restoreDepth;
  rt_.emitFor(e.tid, EventKind::LockAcquire, id_, 0);  // T2 (handoff)
  rt_.scheduler().unblock(e.tid);
}

void Monitor::vWait(ThreadId self) {
  VirtualState& v = *v_;
  CONFAIL_CHECK(v.owner == self, IllegalMonitorState,
                "wait on monitor '" + name_ + "' without owning its lock");
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr && hooks->suppressWait(id_, self)) {
    // FF-T3: the wait never fires — no T3, the lock stays held, the
    // caller returns immediately (a guard loop degenerates to a spin).
    rt_.schedulePoint();
    return;
  }
  const std::uint32_t saved = v.depth;
  if (waitCounter_ != nullptr) waitCounter_->inc();
  rt_.emit(EventKind::WaitBegin, id_, 0);  // T3 (releases the lock)
  snapshotBump();
  v.waiters.push_back(VirtualState::Waiter{self, saved});
  v.owner = kNoThread;
  v.depth = 0;
  vGrantNext();
  rt_.scheduler().block(sched::BlockKind::CondWait, id_);
  // A notifier moved us to the entry queue (T5) and a subsequent release
  // handed us the lock (T2) with our depth restored.
  CONFAIL_ASSERT(v.owner == self && v.depth == saved, "wait resume corrupted");
}

void Monitor::vNotify(ThreadId self, bool all) {
  VirtualState& v = *v_;
  CONFAIL_CHECK(v.owner == self, IllegalMonitorState,
                std::string(all ? "notifyAll" : "notify") + " on monitor '" +
                    name_ + "' without owning its lock");
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr && hooks->suppressNotify(id_, self, all)) {
    // FF-T5: the notification is lost — no call event, nobody wakes.
    return;
  }
  if (notifyCounter_ != nullptr) notifyCounter_->inc();
  rt_.emit(all ? EventKind::NotifyAllCall : EventKind::NotifyCall, id_,
           v.waiters.size());
  std::size_t count = all ? v.waiters.size() : std::min<std::size_t>(1, v.waiters.size());
  if (count > 0) snapshotBump();
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t idx = vSelect(v.waiters.size(), opts_.wakePolicy);
    VirtualState::Waiter w = v.waiters[idx];
    v.waiters.erase(v.waiters.begin() + static_cast<std::ptrdiff_t>(idx));
    v.entry.push_back(VirtualState::Entry{w.tid, w.savedDepth});
    rt_.emitFor(w.tid, EventKind::Notified, id_, self);  // T5: D -> B
    rt_.scheduler().reblock(w.tid, sched::BlockKind::LockAcquire, id_);
  }
}

void Monitor::vInjectHookWake(InjectionHooks& hooks) {
  VirtualState& v = *v_;
  if (v.waiters.empty()) return;
  const InjectionHooks::WakeInjection w =
      hooks.injectWake(id_, v.waiters.size());
  if (w == InjectionHooks::WakeInjection::None) return;
  // Wake the oldest waiter (a fixed choice keeps the deviation
  // deterministic independent of the wake policy's RNG stream).
  snapshotBump();
  VirtualState::Waiter waiter = v.waiters.front();
  v.waiters.erase(v.waiters.begin());
  v.entry.push_back(VirtualState::Entry{waiter.tid, waiter.savedDepth});
  if (w == InjectionHooks::WakeInjection::Spurious) {
    rt_.emitFor(waiter.tid, EventKind::SpuriousWake, id_, 0);  // EF-T3
  } else {
    // EF-T5: a Notified (T5) with no notify call backing it.
    rt_.emitFor(waiter.tid, EventKind::Notified, id_, kNoThread);
  }
  rt_.scheduler().reblock(waiter.tid, sched::BlockKind::LockAcquire, id_);
}

void Monitor::vInjectSpuriousWakes() {
  VirtualState& v = *v_;
  if (opts_.spuriousWakeProbability <= 0.0 || v.waiters.empty()) return;
  for (std::size_t i = v.waiters.size(); i-- > 0;) {
    if (!rt_.rngChance(opts_.spuriousWakeProbability)) continue;
    snapshotBump();
    VirtualState::Waiter w = v.waiters[i];
    v.waiters.erase(v.waiters.begin() + static_cast<std::ptrdiff_t>(i));
    v.entry.push_back(VirtualState::Entry{w.tid, w.savedDepth});
    rt_.emitFor(w.tid, EventKind::SpuriousWake, id_, 0);
    rt_.scheduler().reblock(w.tid, sched::BlockKind::LockAcquire, id_);
  }
}

// ---------------------------------------------------------------------------
// Real mode
// ---------------------------------------------------------------------------

void Monitor::rLock(ThreadId self) {
  RealState& r = *r_;
  std::unique_lock<std::mutex> g(r.m);
  if (r.owner == self) {
    ++r.depth;
    return;
  }
  rt_.emit(EventKind::LockRequest, id_, 0);  // T1
  if (r.owner != kNoThread && contentionCounter_ != nullptr) {
    contentionCounter_->inc();
  }
  r.entryCv.wait(g, [&] { return r.owner == kNoThread; });
  r.owner = self;
  r.depth = 1;
  rt_.emit(EventKind::LockAcquire, id_, 0);  // T2
}

void Monitor::rUnlock(ThreadId self) {
  RealState& r = *r_;
  std::unique_lock<std::mutex> g(r.m);
  CONFAIL_CHECK(r.owner == self, IllegalMonitorState,
                "unlock of monitor '" + name_ + "' by a non-owner");
  if (r.depth > 1) {
    --r.depth;
    return;
  }
  rt_.emit(EventKind::LockRelease, id_, 0);  // T4
  r.owner = kNoThread;
  r.depth = 0;
  g.unlock();
  r.entryCv.notify_one();
}

void Monitor::rWait(ThreadId self) {
  RealState& r = *r_;
  std::unique_lock<std::mutex> g(r.m);
  CONFAIL_CHECK(r.owner == self, IllegalMonitorState,
                "wait on monitor '" + name_ + "' without owning its lock");
  const std::uint32_t saved = r.depth;
  if (waitCounter_ != nullptr) waitCounter_->inc();
  rt_.emit(EventKind::WaitBegin, id_, 0);  // T3
  r.owner = kNoThread;
  r.depth = 0;
  const std::uint64_t ticket = r.nextTicket++;
  r.waitSet.push_back(ticket);
  r.entryCv.notify_one();  // the lock is free; admit an entry-queue thread
  r.waitCv.wait(g, [&] { return r.signaled.count(ticket) > 0; });
  r.signaled.erase(ticket);
  rt_.emit(EventKind::Notified, id_, kNoThread);  // T5 (notifier unknown here)
  r.entryCv.wait(g, [&] { return r.owner == kNoThread; });
  r.owner = self;
  r.depth = saved;
  rt_.emit(EventKind::LockAcquire, id_, 0);  // T2 (re-acquire)
}

void Monitor::rNotify(ThreadId self, bool all) {
  RealState& r = *r_;
  std::unique_lock<std::mutex> g(r.m);
  CONFAIL_CHECK(r.owner == self, IllegalMonitorState,
                std::string(all ? "notifyAll" : "notify") + " on monitor '" +
                    name_ + "' without owning its lock");
  if (notifyCounter_ != nullptr) notifyCounter_->inc();
  rt_.emit(all ? EventKind::NotifyAllCall : EventKind::NotifyCall, id_,
           r.waitSet.size());
  if (all) {
    for (std::uint64_t t : r.waitSet) r.signaled.insert(t);
    r.waitSet.clear();
  } else if (!r.waitSet.empty()) {
    r.signaled.insert(r.waitSet.front());  // oldest waiter (a legal choice)
    r.waitSet.pop_front();
  }
  g.unlock();
  r.waitCv.notify_all();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

bool Monitor::heldByCurrent() {
  ThreadId self = rt_.currentThread();
  if (v_) return v_->owner == self;
  std::lock_guard<std::mutex> g(r_->m);
  return r_->owner == self;
}

std::size_t Monitor::waitSetSize() {
  if (v_) return v_->waiters.size();
  std::lock_guard<std::mutex> g(r_->m);
  return r_->waitSet.size();
}

std::size_t Monitor::entryQueueLength() {
  if (v_) return v_->entry.size();
  return 0;  // implicit in the condition variable in real mode
}

std::uint32_t Monitor::depth() {
  if (v_) return v_->depth;
  std::lock_guard<std::mutex> g(r_->m);
  return r_->depth;
}

}  // namespace confail::monitor
