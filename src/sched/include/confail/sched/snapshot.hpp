// Program state for incremental (stateful) exploration and pruning.
//
// The stateless explorer re-executes every branch's schedule prefix from
// the root — O(depth) re-execution per run.  Incremental exploration
// (incremental.hpp) instead checkpoints the complete session state at each
// decision point and *restores* a parent's state when a child branch is
// dispatched, the classic stateful-search move of JPF and VeriSoft.  As in
// JPF, the state that is stored is also the state that is hashed.
//
// A StateSource is any object whose mutable state belongs to the program
// under test: monitors, shared variables, uninstrumented SnapshotCell
// fields, the Runtime (policy RNG, id counters, method stacks, recorded
// trace) and the fault Injector.  Each registers once, through
// VirtualScheduler::addStateSource, and supplies both halves: a
// fingerprint of its logical state (fingerprint.hpp) and a deep copy of it
// for checkpoint/restore.  The copy is copy-on-write via *version stamps*
// that are unique across the whole process:
//
//   * every mutation calls snapshotBump(), which assigns the object a
//     fresh, globally unique stamp;
//   * snapshotSave() re-serializes only if the object's stamp changed
//     since the cached payload was produced — sibling checkpoints that
//     saw no intervening mutation share one immutable payload;
//   * snapshotRestore() skips the copy entirely when the object already
//     carries the payload's stamp: stamps are never reused, so an equal
//     stamp proves the bytes are already identical.
//
// Stamps must be unique process-wide, not per object: with per-object
// counters, save at version v, mutate, restore to v, mutate again would
// re-reach "v+1" with *different* contents and a later restore-to-v+1
// would incorrectly skip the copy.  They need not be ordered, because
// every use is an equality test.  So each OS thread takes a block of
// kSnapshotStampBlock stamps from one global clock with a single
// fetch_add and hands them out from a thread_local cursor: blocks are
// disjoint, so stamps never repeat, and explorer workers stop contending
// on one cache line for every resume and mutation.  An object is only
// ever stamped by the thread running its session (fibers never migrate
// between OS threads), but uniqueness does not rely on that.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace confail::sched {

/// Stamps an OS thread reserves from the global clock at a time.
inline constexpr std::uint64_t kSnapshotStampBlock = std::uint64_t{1} << 16;

/// Next snapshot-version stamp.  Stamps are unique across all objects,
/// threads and time, and never 0; equal stamps therefore prove equal
/// state.
inline std::uint64_t nextSnapshotVersion() noexcept {
  static std::atomic<std::uint64_t> clock{1};
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = clock.fetch_add(kSnapshotStampBlock, std::memory_order_relaxed);
    end = next + kSnapshotStampBlock;
  }
  return next++;
}

/// A piece of program state, hashed into VirtualScheduler::fingerprint()
/// and saved into its snapshots.  Implementations provide
/// stateFingerprint(), saveState()/restoreState() (a deep copy of their
/// mutable state as an opaque immutable payload) and call snapshotBump()
/// from every mutating operation; the base class supplies the
/// copy-on-write caching on top.
///
/// Virtual-mode monitors, shared variables, snapshot cells, the Runtime
/// and the Injector register themselves via VirtualScheduler::addStateSource
/// and unregister in their destructors.
class StateSource {
 public:
  virtual ~StateSource() = default;

  /// A hash of this object's current logical state.  Must be a pure
  /// function of state: two objects in equal states (possibly in different
  /// runs of the same program) must return equal values.
  virtual std::uint64_t stateFingerprint() const = 0;

  /// Payload for the object's current state, reusing the cached one when
  /// nothing mutated since it was produced.  `versionOut` receives the
  /// stamp the payload corresponds to.  `freshBytes` is incremented by the
  /// payload size only when a new payload had to be serialized (retained-
  /// bytes accounting: shared payloads are free).
  std::shared_ptr<const void> snapshotSave(std::uint64_t& versionOut,
                                           std::size_t& freshBytes) {
    if (!cached_ || cachedVersion_ != version_) {
      cached_ = saveState();
      cachedVersion_ = version_;
      freshBytes += snapshotBytes();
    }
    versionOut = version_;
    return cached_;
  }

  /// Rewind to `payload` (previously produced by snapshotSave with stamp
  /// `version`).  No-op when the object already carries that stamp.
  void snapshotRestore(const std::shared_ptr<const void>& payload,
                       std::uint64_t version) {
    if (version_ == version) return;
    restoreState(payload);
    version_ = version;
    cached_ = payload;
    cachedVersion_ = version;
  }

  /// Approximate heap size of one saved payload, for the retained-bytes
  /// figures (explorer.snapshot_bytes_peak).  An estimate is fine; it
  /// steers no decision.
  virtual std::size_t snapshotBytes() const = 0;

 protected:
  /// Mark this object mutated: the next snapshotSave() serializes afresh
  /// and no existing payload's stamp will ever match again.
  void snapshotBump() noexcept { version_ = nextSnapshotVersion(); }

 private:
  virtual std::shared_ptr<const void> saveState() const = 0;
  virtual void restoreState(const std::shared_ptr<const void>& payload) = 0;

  std::uint64_t version_ = nextSnapshotVersion();
  std::shared_ptr<const void> cached_;
  std::uint64_t cachedVersion_ = 0;
};

}  // namespace confail::sched
