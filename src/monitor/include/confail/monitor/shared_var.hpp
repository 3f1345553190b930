// SharedVar<T>: an instrumented shared variable.
//
// Every access emits a Read/Write event carrying the variable id, which is
// what the lockset (Eraser) and happens-before detectors consume to find
// FF-T1 interference (data races).  A schedule point precedes each access,
// so in virtual mode the explorer can interleave threads *between* the read
// and the write of an unsynchronized read-modify-write — making lost
// updates actually manifest, not just be flagged.
//
// The underlying storage is guarded by a private mutex in real mode so that
// an intentionally racy component (a mutant with synchronization removed)
// exhibits the logical race — interference on the component state — without
// committing C++ undefined behaviour on the raw memory.  The private mutex
// is not a monitor and is invisible to the detectors.
//
// In virtual mode the variable registers once with the scheduler as a
// StateSource: its value is hashed into the state fingerprint and copied
// into every checkpoint, so T must be copyable.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "confail/monitor/runtime.hpp"
#include "confail/sched/snapshot.hpp"

namespace confail::monitor {

template <typename T>
class SharedVar : public sched::StateSource {
  static_assert(std::is_copy_constructible_v<T> && std::is_copy_assignable_v<T>,
                "a SharedVar's value is copied into every snapshot");

 public:
  SharedVar(Runtime& rt, const std::string& name, T init)
      : rt_(rt), id_(rt.registerVar(name)), value_(std::move(init)) {
    if (rt_.isVirtual()) rt_.scheduler().addStateSource(this);
  }

  ~SharedVar() override {
    if (rt_.isVirtual()) rt_.scheduler().removeStateSource(this);
  }

  SharedVar(const SharedVar&) = delete;
  SharedVar& operator=(const SharedVar&) = delete;

  /// Fingerprint contribution: the variable's current value when T is
  /// std::hash-able, otherwise a running hash of the write history.  The
  /// value itself must participate — a write count alone would equate
  /// states that diverge on the next read.
  std::uint64_t stateFingerprint() const override {
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t h = sched::fpMix(sched::kFpSeed, sched::fpTag('v', id_));
    if constexpr (requires(const T& t) { std::hash<T>{}(t); }) {
      h = sched::fpMix(h, std::hash<T>{}(value_));
    } else {
      h = sched::fpMix(h, historyHash_);
    }
    return h;
  }

  /// Instrumented read (emits a Read event; schedule point before access).
  T get() {
    rt_.schedulePoint();
    rt_.emit(EventKind::Read, events::kNoMonitor, id_);
    std::lock_guard<std::mutex> g(mu_);
    return value_;
  }

  /// Instrumented write (emits a Write event; schedule point before access).
  void set(T v) {
    rt_.schedulePoint();
    rt_.emit(EventKind::Write, events::kNoMonitor, id_);
    std::lock_guard<std::mutex> g(mu_);
    snapshotBump();
    value_ = std::move(v);
    if constexpr (requires(const T& t) { std::hash<T>{}(t); }) {
      // stateFingerprint() hashes the value directly.
    } else {
      ThreadId writer = rt_.currentThread();
      historyHash_ = sched::fpMix(historyHash_, writer);
    }
  }

  /// Uninstrumented peek for assertions in tests and invariant checks;
  /// emits nothing and takes no schedule point.
  T peek() const {
    std::lock_guard<std::mutex> g(mu_);
    return value_;
  }

  VarId id() const { return id_; }

  /// Snapshot payload size: the value plus the history hash.
  std::size_t snapshotBytes() const override { return sizeof(Snap); }

 private:
  struct Snap {
    T value;
    std::uint64_t historyHash;
  };

  std::shared_ptr<const void> saveState() const override {
    std::lock_guard<std::mutex> g(mu_);
    return std::make_shared<Snap>(Snap{value_, historyHash_});
  }

  void restoreState(const std::shared_ptr<const void>& payload) override {
    const Snap& s = *static_cast<const Snap*>(payload.get());
    std::lock_guard<std::mutex> g(mu_);
    value_ = s.value;
    historyHash_ = s.historyHash;
  }

  Runtime& rt_;
  VarId id_;
  mutable std::mutex mu_;
  T value_;
  std::uint64_t historyHash_ = sched::kFpSeed;  // non-hashable T fallback
};

}  // namespace confail::monitor
