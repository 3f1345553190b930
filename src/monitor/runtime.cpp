#include "confail/monitor/runtime.hpp"

#include "confail/support/assert.hpp"

namespace confail::monitor {

namespace {
// Real-mode logical thread id of the current std::thread, per runtime.
struct RealTls {
  Runtime* rt = nullptr;
  ThreadId id = events::kNoThread;
};
thread_local RealTls realTls;

// Snapshot payload for Runtime (virtual mode).  The trace image is stored
// by value, not as a length to truncate to: checkpoints are restored in
// arbitrary order (a cache, not a stack), so after a sibling run rewound to
// a shallower point and appended its own events, the trace's first k slots
// no longer hold this checkpoint's prefix — only the captured content does.
struct RuntimeSnap {
  Xoshiro256 rng;
  std::uint32_t nextMonitorId;
  std::uint32_t nextVarId;
  std::uint32_t nextMethodId;
  std::uint32_t nextThreadId;
  std::vector<std::vector<MethodId>> methodStacks;
  std::vector<events::Event> traceImage;
};
}  // namespace

Runtime::Runtime(events::Trace& trace, sched::VirtualScheduler& sched,
                 std::uint64_t seed, obs::Registry* metrics, Events events)
    : mode_(Mode::Virtual), trace_(trace), sched_(&sched), metrics_(metrics),
      recordEvents_(events == Events::Record), rng_(seed) {
  sched_->addStateSource(this);
}

Runtime::Runtime(events::Trace& trace, std::uint64_t seed,
                 obs::Registry* metrics)
    : mode_(Mode::Real), trace_(trace), metrics_(metrics), rng_(seed) {}

Runtime::~Runtime() {
  if (sched_ != nullptr) {
    sched_->removeStateSource(this);
  }
  joinAll();
}

std::shared_ptr<const void> Runtime::saveState() const {
  return std::make_shared<RuntimeSnap>(RuntimeSnap{
      rng_, nextMonitorId_, nextVarId_, nextMethodId_, nextThreadId_,
      methodStacks_,
      recordEvents_ ? trace_.events() : std::vector<events::Event>{}});
}

void Runtime::restoreState(const std::shared_ptr<const void>& payload) {
  const RuntimeSnap& snap = *static_cast<const RuntimeSnap*>(payload.get());
  rng_ = snap.rng;
  nextMonitorId_ = snap.nextMonitorId;
  nextVarId_ = snap.nextVarId;
  nextMethodId_ = snap.nextMethodId;
  nextThreadId_ = snap.nextThreadId;
  methodStacks_ = snap.methodStacks;
  if (recordEvents_) trace_.restore(snap.traceImage);
}

std::size_t Runtime::snapshotBytes() const {
  std::size_t n = sizeof(RuntimeSnap) +
                  methodStacks_.capacity() * sizeof(std::vector<MethodId>) +
                  trace_.size() * sizeof(events::Event);
  for (const std::vector<MethodId>& s : methodStacks_) {
    n += s.capacity() * sizeof(MethodId);
  }
  return n;
}

std::uint64_t Runtime::stateFingerprint() const {
  std::uint64_t h = sched::fpMix(sched::kFpSeed, rng_.stateHash());
  h = sched::fpMix(h, (static_cast<std::uint64_t>(nextMonitorId_) << 32) ^
                          nextVarId_);
  h = sched::fpMix(h, (static_cast<std::uint64_t>(nextMethodId_) << 32) ^
                          nextThreadId_);
  return h;
}

void Runtime::noteFootprint(EventKind kind, MonitorId monitorId,
                            std::uint64_t aux) {
  switch (kind) {
    case EventKind::Read:
      sched_->noteAccess(sched::fpTag('v', aux), /*isWrite=*/false);
      break;
    case EventKind::Write:
      sched_->noteAccess(sched::fpTag('v', aux), /*isWrite=*/true);
      break;
    case EventKind::LockRequest:
    case EventKind::LockAcquire:
    case EventKind::WaitBegin:
    case EventKind::LockRelease:
    case EventKind::Notified:
    case EventKind::NotifyCall:
    case EventKind::NotifyAllCall:
    case EventKind::SpuriousWake:
      // Any monitor operation orders against every other operation on the
      // same monitor (entry queue and wait set are shared state).
      sched_->noteAccess(sched::fpTag('m', monitorId), /*isWrite=*/true);
      break;
    case EventKind::ThreadSpawn:
      sched_->noteGlobalEffect();
      break;
    case EventKind::ClockAwait:
    case EventKind::ClockTick:
      // Abstract-clock traffic interacts with idle-handler time advance;
      // treat conservatively.
      sched_->noteGlobalEffect();
      break;
    case EventKind::ThreadStart:
    case EventKind::ThreadEnd:
    case EventKind::MethodEnter:
    case EventKind::MethodExit:
    case EventKind::GuardEval:
      break;  // thread-local bookkeeping: no shared footprint
  }
}

sched::VirtualScheduler& Runtime::scheduler() {
  CONFAIL_CHECK(sched_ != nullptr, UsageError,
                "scheduler() is only available in virtual mode");
  return *sched_;
}

ThreadId Runtime::allocateThread(const std::string& name) {
  // Called with mu_ held in real mode.
  ThreadId id = nextThreadId_++;
  if (methodStacks_.size() <= id) methodStacks_.resize(id + 1);
  trace_.nameThread(id, name);
  return id;
}

ThreadId Runtime::spawn(std::string name, std::function<void()> fn) {
  if (mode_ == Mode::Virtual) {
    ThreadId parent = sched_->currentThread();
    // The scheduler allocates ids densely in spawn order, mirroring ours.
    ThreadId id = sched_->spawn(name, [this, fn = std::move(fn)] {
      emit(EventKind::ThreadStart, events::kNoMonitor, 0);
      fn();
      emit(EventKind::ThreadEnd, events::kNoMonitor, 0);
    });
    snapshotBump();
    if (methodStacks_.size() <= id) methodStacks_.resize(id + 1);
    trace_.nameThread(id, std::move(name));
    if (parent != events::kNoThread) {
      emitFor(parent, EventKind::ThreadSpawn, events::kNoMonitor, id);
    }
    return id;
  }

  ThreadId id;
  ThreadId parent = currentThread();
  {
    std::lock_guard<std::mutex> g(mu_);
    id = allocateThread(name);
  }
  if (parent != events::kNoThread) {
    emitFor(parent, EventKind::ThreadSpawn, events::kNoMonitor, id);
  }
  std::thread real([this, id, fn = std::move(fn)] {
    realTls = RealTls{this, id};
    emit(EventKind::ThreadStart, events::kNoMonitor, 0);
    fn();
    emit(EventKind::ThreadEnd, events::kNoMonitor, 0);
    realTls = RealTls{};
  });
  {
    std::lock_guard<std::mutex> g(mu_);
    realThreads_.push_back(std::move(real));
  }
  return id;
}

void Runtime::joinAll() {
  if (mode_ == Mode::Virtual) return;
  std::vector<std::thread> pending;
  {
    std::lock_guard<std::mutex> g(mu_);
    pending.swap(realThreads_);
  }
  for (std::thread& t : pending) {
    if (t.joinable()) t.join();
  }
}

void Runtime::join(ThreadId t) {
  CONFAIL_CHECK(mode_ == Mode::Virtual, UsageError,
                "join(tid) is only available in virtual mode");
  sched_->joinThread(t);
}

ThreadId Runtime::currentThread() {
  if (mode_ == Mode::Virtual) return sched_->currentThread();
  if (realTls.rt == this) return realTls.id;
  // Auto-register the calling (e.g. main) thread so examples can invoke
  // component methods directly in real mode.
  std::lock_guard<std::mutex> g(mu_);
  ThreadId id = allocateThread("caller-" + std::to_string(nextThreadId_));
  realTls = RealTls{this, id};
  return id;
}

void Runtime::schedulePoint() {
  if (mode_ == Mode::Virtual) {
    if (sched_->onLogicalThread()) sched_->yield();
    return;
  }
  if (noiseProb_ > 0.0 && rngChance(noiseProb_)) {
    std::this_thread::yield();
  }
}

MonitorId Runtime::registerMonitor(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  if (mode_ == Mode::Virtual) snapshotBump();
  MonitorId id = nextMonitorId_++;
  trace_.nameMonitor(id, name);
  return id;
}

VarId Runtime::registerVar(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  if (mode_ == Mode::Virtual) snapshotBump();
  VarId id = nextVarId_++;
  trace_.nameVar(id, name);
  return id;
}

MethodId Runtime::registerMethod(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  if (mode_ == Mode::Virtual) snapshotBump();
  MethodId id = nextMethodId_++;
  trace_.nameMethod(id, name);
  return id;
}

std::uint64_t Runtime::emit(EventKind kind, MonitorId monitorId,
                            std::uint64_t aux, bool flag) {
  return emitFor(currentThread(), kind, monitorId, aux, flag);
}

std::uint64_t Runtime::emitFor(ThreadId thread, EventKind kind,
                               MonitorId monitorId, std::uint64_t aux,
                               bool flag) {
  if (mode_ == Mode::Virtual) {
    noteFootprint(kind, monitorId, aux);
    if (!recordEvents_) return 0;
    snapshotBump();  // the trace content is snapshotted state
  }
  events::Event e;
  e.thread = thread;
  e.kind = kind;
  e.monitor = monitorId;
  e.aux = aux;
  e.flag = flag;
  e.method = currentMethodOf(thread);
  return trace_.record(e);
}

void Runtime::pushMethod(MethodId m) {
  ThreadId t = currentThread();
  std::lock_guard<std::mutex> g(mu_);
  CONFAIL_ASSERT(t < methodStacks_.size(), "method push on unknown thread");
  if (mode_ == Mode::Virtual) snapshotBump();
  methodStacks_[t].push_back(m);
}

void Runtime::popMethod() {
  ThreadId t = currentThread();
  std::lock_guard<std::mutex> g(mu_);
  CONFAIL_ASSERT(t < methodStacks_.size() && !methodStacks_[t].empty(),
                 "method pop without push");
  if (mode_ == Mode::Virtual) snapshotBump();
  methodStacks_[t].pop_back();
}

MethodId Runtime::currentMethodOf(ThreadId t) {
  if (t == events::kNoThread) return events::kNoMethod;
  std::lock_guard<std::mutex> g(mu_);
  if (t >= methodStacks_.size() || methodStacks_[t].empty()) {
    return events::kNoMethod;
  }
  return methodStacks_[t].back();
}

std::uint64_t Runtime::rngBelow(std::uint64_t bound) {
  // Consuming a policy draw advances shared state: steps that both draw
  // from the RNG do not commute (the stream order is the state).
  if (mode_ == Mode::Virtual) {
    sched_->noteAccess(sched::fpTag('r', 0), /*isWrite=*/true);
    snapshotBump();
  }
  std::lock_guard<std::mutex> g(mu_);
  return rng_.below(bound);
}

bool Runtime::rngChance(double p) {
  if (mode_ == Mode::Virtual) {
    sched_->noteAccess(sched::fpTag('r', 0), /*isWrite=*/true);
    snapshotBump();
  }
  std::lock_guard<std::mutex> g(mu_);
  return rng_.chance(p);
}

MethodScope::MethodScope(Runtime& rt, MethodId method)
    : rt_(rt), method_(method) {
  rt_.pushMethod(method_);
  rt_.emit(EventKind::MethodEnter, events::kNoMonitor, method_);
}

MethodScope::~MethodScope() {
  rt_.emit(EventKind::MethodExit, events::kNoMonitor, method_);
  rt_.popMethod();
}

}  // namespace confail::monitor
