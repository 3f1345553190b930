#include "confail/inject/injector.hpp"

#include "confail/sched/fingerprint.hpp"
#include "confail/support/assert.hpp"

namespace confail::inject {

using taxonomy::FailureClass;

Injector::Injector(monitor::Runtime& rt, const InjectionPlan& plan)
    : rt_(rt), plan_(plan) {
  if (!isInjectable(plan_.cls)) {
    throw confail::UsageError(std::string("Injector: class ") +
                              taxonomy::failureClassName(plan_.cls) +
                              " has no deviation operator");
  }
  if (!rt_.isVirtual()) {
    throw confail::UsageError(
        "Injector: deviation injection requires a virtual-mode Runtime");
  }
  rt_.setInjection(this);
  rt_.scheduler().addStateSource(this);
}

Injector::~Injector() {
  rt_.scheduler().removeStateSource(this);
  rt_.setInjection(nullptr);
}

namespace {
struct InjectorSnap {
  std::uint64_t occasions;
  std::uint64_t applied;
  std::map<std::pair<events::MonitorId, events::ThreadId>, std::uint32_t>
      pendingUnlocks;
};
}  // namespace

std::shared_ptr<const void> Injector::saveState() const {
  return std::make_shared<InjectorSnap>(
      InjectorSnap{occasions_, applied_, pendingUnlocks_});
}

void Injector::restoreState(const std::shared_ptr<const void>& payload) {
  const InjectorSnap& snap = *static_cast<const InjectorSnap*>(payload.get());
  occasions_ = snap.occasions;
  applied_ = snap.applied;
  pendingUnlocks_ = snap.pendingUnlocks;
}

std::size_t Injector::snapshotBytes() const {
  return sizeof(InjectorSnap) +
         pendingUnlocks_.size() *
             (sizeof(std::pair<const std::pair<events::MonitorId,
                                               events::ThreadId>,
                               std::uint32_t>) +
              4 * sizeof(void*));  // rb-tree node overhead estimate
}

std::uint64_t Injector::stateFingerprint() const {
  std::uint64_t h = sched::kFpSeed;
  h = sched::fpMix(h, occasions_);
  h = sched::fpMix(h, applied_);
  for (const auto& [key, n] : pendingUnlocks_) {
    h = sched::fpMix(h, (static_cast<std::uint64_t>(key.first) << 32) ^
                            static_cast<std::uint64_t>(key.second));
    h = sched::fpMix(h, n);
  }
  return h;
}

bool Injector::siteMatches(events::MonitorId m) const {
  return plan_.monitor.empty() || rt_.trace().monitorName(m) == plan_.monitor;
}

bool Injector::victimMatches(events::ThreadId t) const {
  return plan_.victim.empty() || rt_.scheduler().threadName(t) == plan_.victim;
}

void Injector::noteMutation() {
  // Every mutation of injector state (fire()'s counters, the pending-unlock
  // ledger) calls this within the same scheduler step as the mutation, so
  // one version bump here keeps snapshot payloads coherent.
  snapshotBump();
  rt_.scheduler().noteAccess(sched::fpTag('j', 0), /*isWrite=*/true);
}

bool Injector::fire(events::MonitorId m, events::ThreadId t,
                    bool checkVictim) {
  if (!siteMatches(m)) return false;
  if (checkVictim && !victimMatches(t)) return false;
  const std::uint64_t n = occasions_++;
  noteMutation();
  if (n < plan_.after || n - plan_.after >= plan_.count) return false;
  ++applied_;
  return true;
}

Injector::LockAction Injector::onLock(events::MonitorId m,
                                      events::ThreadId t) {
  switch (plan_.cls) {
    case FailureClass::FF_T1:
      if (fire(m, t, true)) {
        ++pendingUnlocks_[{m, t}];
        return LockAction::Elide;
      }
      return LockAction::Proceed;
    case FailureClass::FF_T2:
      return fire(m, t, true) ? LockAction::Starve : LockAction::Proceed;
    default:
      return LockAction::Proceed;
  }
}

bool Injector::onElidedUnlock(events::MonitorId m, events::ThreadId t) {
  auto it = pendingUnlocks_.find({m, t});
  if (it == pendingUnlocks_.end() || it->second == 0) return false;
  if (--it->second == 0) pendingUnlocks_.erase(it);
  noteMutation();
  return true;
}

bool Injector::leakUnlock(events::MonitorId m, events::ThreadId t) {
  return plan_.cls == FailureClass::FF_T4 && fire(m, t, true);
}

bool Injector::releaseEarly(events::MonitorId m, events::ThreadId t) {
  if (plan_.cls != FailureClass::EF_T4 || !fire(m, t, true)) return false;
  ++pendingUnlocks_[{m, t}];
  return true;
}

bool Injector::suppressWait(events::MonitorId m, events::ThreadId t) {
  return plan_.cls == FailureClass::FF_T3 && fire(m, t, true);
}

bool Injector::suppressNotify(events::MonitorId m, events::ThreadId t,
                              bool /*all*/) {
  return plan_.cls == FailureClass::FF_T5 && fire(m, t, true);
}

bool Injector::overrideGrant(events::MonitorId m, std::size_t queueSize,
                             std::size_t& pick) {
  if (plan_.cls != FailureClass::EF_T2 || queueSize < 2) return false;
  if (!fire(m, events::kNoThread, false)) return false;
  pick = queueSize - 1;  // newest arrival: overtakes everyone queued earlier
  return true;
}

Injector::WakeInjection Injector::injectWake(events::MonitorId m,
                                             std::size_t /*waitSetSize*/) {
  if (plan_.cls == FailureClass::EF_T3 && fire(m, events::kNoThread, false)) {
    return WakeInjection::Spurious;
  }
  if (plan_.cls == FailureClass::EF_T5 && fire(m, events::kNoThread, false)) {
    return WakeInjection::Phantom;
  }
  return WakeInjection::None;
}

}  // namespace confail::inject
