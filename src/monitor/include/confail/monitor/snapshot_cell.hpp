// SnapshotCell<T>: uninstrumented mutable component state that still
// participates in checkpoint/restore.
//
// Components keep some state outside SharedVar on purpose — a buffer's
// backing deque, say, is guarded by the component's monitor and must not
// generate Read/Write events of its own (the detectors would see phantom
// races on state the monitor already orders).  But incremental exploration
// snapshots *all* mutable state, so such fields would silently leak across
// a restore and corrupt sibling branches.
//
// SnapshotCell wraps the field: in virtual mode it registers with the
// scheduler as a StateSource and every mutable access (`mut()`) bumps
// the copy-on-write version stamp.  It emits no events and takes no
// schedule points — it is invisible to detectors and to the DPOR footprint,
// exactly like the raw field it replaces (the owning monitor already orders
// all accesses).  Its fingerprint is a constant, so the cell's contents do
// not tell states apart (see docs/exploration.md, "State-fingerprint
// pruning").
//
// T must be copy-constructible and copy-assignable.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "confail/monitor/runtime.hpp"
#include "confail/sched/snapshot.hpp"

namespace confail::monitor {

template <typename T>
class SnapshotCell : public sched::StateSource {
 public:
  SnapshotCell(Runtime& rt, T init) : rt_(rt), value_(std::move(init)) {
    if (rt_.isVirtual()) rt_.scheduler().addStateSource(this);
  }

  ~SnapshotCell() override {
    if (rt_.isVirtual()) rt_.scheduler().removeStateSource(this);
  }

  SnapshotCell(const SnapshotCell&) = delete;
  SnapshotCell& operator=(const SnapshotCell&) = delete;

  /// Mutable access: bumps the snapshot version.  The caller must hold
  /// whatever monitor guards this field (same contract as the raw field).
  T& mut() {
    snapshotBump();
    return value_;
  }

  /// Read-only access: no version bump.
  const T& get() const { return value_; }

  std::uint64_t stateFingerprint() const override { return 0; }

  std::size_t snapshotBytes() const override { return sizeof(T); }

 private:
  std::shared_ptr<const void> saveState() const override {
    return std::make_shared<T>(value_);
  }

  void restoreState(const std::shared_ptr<const void>& payload) override {
    value_ = *static_cast<const T*>(payload.get());
  }

  Runtime& rt_;
  T value_;
};

}  // namespace confail::monitor
