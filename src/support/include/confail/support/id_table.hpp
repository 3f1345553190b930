// IdTable<T>: per-id state for the 32-bit ids of a trace (threads,
// monitors, variables, methods).
//
// The runtime assigns those ids densely from 0, so the common case is a
// plain vector index: one bounds check, no hashing, no tree walk.  But an
// id can also come off the wire (a decoded JSONL stream, a corrupt line, a
// sentinel such as kNoMonitor), and a vector sized to a stray id would cost
// memory in proportion to the id, not to the ids actually seen.  The dense
// vector therefore only grows to an id less than kDenseSlack past its end
// (and below kDenseLimit), so one id adds at most kDenseSlack slots; any
// other id goes to an ordered side map and costs one node.  When the
// vector grows over ids already in the map, they move into it.  Iteration
// is in ascending id order across both parts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace confail {

template <typename T>
class IdTable {
 public:
  /// Ids at or above this are always stored sparsely.
  static constexpr std::uint32_t kDenseLimit = 1u << 20;
  /// The most slots one access may add to the dense vector.
  static constexpr std::size_t kDenseSlack = 1024;

  /// The slot for `id`, value-initialised on first access.  Any call with
  /// an id at or past the dense end may grow the dense vector and so
  /// invalidate references to dense slots taken before it.
  T& operator[](std::uint32_t id) {
    if (id < dense_.size()) return dense_[id];
    if (id < kDenseLimit && id - dense_.size() < kDenseSlack) {
      grow(std::size_t{id} + 1);
      return dense_[id];
    }
    return sparse_[id];
  }

  /// The slot for `id`, or null when it was never accessed.  A dense id
  /// below size() may return a value-initialised slot.
  const T* find(std::uint32_t id) const {
    if (id < dense_.size()) return &dense_[id];
    const auto it = sparse_.find(id);
    return it == sparse_.end() ? nullptr : &it->second;
  }
  /// As above, for writing; never grows the table.
  T* find(std::uint32_t id) {
    return const_cast<T*>(static_cast<const IdTable&>(*this).find(id));
  }

  /// Forget `id`: a dense slot is reset to a value-initialised T, a sparse
  /// one is removed, so a bounded working set of far ids stays bounded.
  void erase(std::uint32_t id) {
    if (id < dense_.size()) {
      dense_[id] = T{};
    } else {
      sparse_.erase(id);
    }
  }

  /// One past the highest id that has a slot.
  std::uint64_t size() const {
    return sparse_.empty() ? dense_.size()
                           : std::uint64_t{sparse_.rbegin()->first} + 1;
  }

  /// Visit every slot as f(id, value), in ascending id order.
  template <typename F>
  void forEach(F&& f) const {
    for (std::size_t id = 0; id < dense_.size(); ++id) {
      f(static_cast<std::uint32_t>(id), dense_[id]);
    }
    for (const auto& [id, value] : sparse_) f(id, value);
  }

 private:
  // Every sparse id stays at or above dense_.size(), so the two parts
  // never hold the same id.
  void grow(std::size_t n) {
    dense_.resize(n);
    auto it = sparse_.begin();
    for (; it != sparse_.end() && it->first < n; ++it) {
      dense_[it->first] = std::move(it->second);
    }
    sparse_.erase(sparse_.begin(), it);
  }

  std::vector<T> dense_;
  std::map<std::uint32_t, T> sparse_;
};

}  // namespace confail
