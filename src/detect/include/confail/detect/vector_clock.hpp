// A vector clock over logical thread ids.
//
// The runtime assigns thread ids densely from 0, so the clock is a plain
// vector indexed by id.  But an id can also come off the wire (a decoded
// JSONL line without a thread decodes to kNoThread, 0xffffffff), and a
// vector sized to such an id would cost memory in proportion to the id.  So,
// as in IdTable, the vector only grows to an id less than kDenseSlack past
// its end (and below kDenseLimit); any other id goes to a sorted side
// table.  When the vector grows over ids already in the table, they move
// into it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "confail/support/id_table.hpp"

namespace confail::detect {

class VectorClock {
 public:
  VectorClock() = default;

  std::uint64_t of(std::uint32_t tid) const {
    if (tid < c_.size()) return c_[tid];
    if (far_.empty()) return 0;
    const auto it = lowerBound(tid);
    return it != far_.end() && it->first == tid ? it->second : 0;
  }

  void bump(std::uint32_t tid) { ++slot(tid); }

  void join(const VectorClock& other) {
    if (&other == this) return;  // slot() below may reshape far_
    if (other.c_.size() > c_.size()) grow(other.c_.size());
    for (std::size_t i = 0; i < other.c_.size(); ++i) {
      c_[i] = std::max(c_[i], other.c_[i]);
    }
    for (const auto& [tid, time] : other.far_) {
      std::uint64_t& mine = slot(tid);
      mine = std::max(mine, time);
    }
  }

 private:
  static constexpr std::uint32_t kDenseLimit =
      IdTable<std::uint64_t>::kDenseLimit;
  static constexpr std::size_t kDenseSlack =
      IdTable<std::uint64_t>::kDenseSlack;
  using Far = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

  Far::const_iterator lowerBound(std::uint32_t tid) const {
    return std::lower_bound(
        far_.begin(), far_.end(), tid,
        [](const Far::value_type& e, std::uint32_t t) { return e.first < t; });
  }

  std::uint64_t& slot(std::uint32_t tid) {
    if (tid < c_.size()) return c_[tid];
    if (tid < kDenseLimit && tid - c_.size() < kDenseSlack) {
      grow(std::size_t{tid} + 1);
      return c_[tid];
    }
    const auto at = far_.begin() + (lowerBound(tid) - far_.begin());
    if (at != far_.end() && at->first == tid) return at->second;
    return far_.insert(at, {tid, 0})->second;
  }

  // Every side-table id stays at or above c_.size(), so the two parts
  // never hold the same id.
  void grow(std::size_t n) {
    c_.resize(n, 0);
    auto it = far_.begin();
    for (; it != far_.end() && it->first < n; ++it) c_[it->first] = it->second;
    far_.erase(far_.begin(), it);
  }

  std::vector<std::uint64_t> c_;
  Far far_;  ///< sorted by id
};

}  // namespace confail::detect
