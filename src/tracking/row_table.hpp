#pragma once
// RowTable — an open-addressed hash table of small fixed-size rows.
//
// Linear probing over a power-of-two slot array, with backward-shift
// erase (no tombstones): after an erase every remaining row is still
// reachable from its home slot without crossing an empty one. Capacity
// follows the live rows: the table doubles past 3/4 load and halves below
// 1/4, never below kMinCapacity, so it holds at most
// max(kMinCapacity, 4 × size()) slots. Inserting or erasing may move other
// rows, so callers hold at most the reference the last call returned.
//
// A Row is a trivially copyable aggregate with a key() accessor; a
// value-initialised Row is an empty slot, and its key is the empty key,
// which no live row may use. Hash maps a key to 64 well-mixed bits and the
// table takes a key's home slot from the top bits.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace vs::tracking {

template <class Row, class Hash>
class RowTable {
 public:
  using Key = decltype(std::declval<const Row&>().key());
  static_assert(std::is_trivially_copyable_v<Row>);

  static constexpr std::size_t kMinCapacity = 16;

  RowTable() = default;
  RowTable(RowTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)),
        shift_(std::exchange(other.shift_, 0)) {}
  RowTable& operator=(RowTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    shift_ = std::exchange(other.shift_, 0);
    return *this;
  }
  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;
  ~RowTable() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated (0 until the first insert).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The row keyed `k`, or nullptr.
  [[nodiscard]] const Row* find(Key k) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(k);; i = next(i)) {
      const Row& r = slots_[i];
      if (empty(r)) return nullptr;
      if (r.key() == k) return &r;
    }
  }
  [[nodiscard]] Row* find(Key k) {
    return const_cast<Row*>(std::as_const(*this).find(k));
  }

  /// The row keyed `fresh.key()`; `fresh` is stored if there is none.
  Row& find_or_insert(const Row& fresh) {
    const Key k = fresh.key();
    VS_REQUIRE(!empty(fresh), "a row cannot use the empty key");
    std::size_t i = 0;
    if (!slots_.empty()) {
      for (i = home(k); !empty(slots_[i]); i = next(i)) {
        if (slots_[i].key() == k) return slots_[i];
      }
    }
    if ((size_ + 1) * 4 > capacity() * 3) {
      rehash(capacity() == 0 ? kMinCapacity : 2 * capacity());
      i = free_slot(k);
    }
    slots_[i] = fresh;
    ++size_;
    return slots_[i];
  }

  /// Removes `row`, which must be a row of this table.
  void erase(Row& row) {
    const std::size_t mask = capacity() - 1;
    std::size_t hole = static_cast<std::size_t>(&row - slots_.data());
    // Backward shift: pull each later row of the probe run into the hole
    // unless the hole lies before its home slot.
    for (std::size_t j = next(hole); !empty(slots_[j]); j = next(j)) {
      if (((j - home(slots_[j].key())) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Row{};
    --size_;
    if (capacity() > kMinCapacity && size_ * 4 < capacity()) {
      rehash(capacity() / 2);
    }
  }

  /// Calls `f(row)` for every row, in slot order (not key order).
  template <class F>
  void for_each(F&& f) const {
    for (const Row& r : slots_) {
      if (!empty(r)) f(r);
    }
  }
  template <class F>
  void for_each(F&& f) {
    for (Row& r : slots_) {
      if (!empty(r)) f(r);
    }
  }

 private:
  static bool empty(const Row& r) { return r.key() == Row{}.key(); }
  [[nodiscard]] std::size_t home(Key k) const {
    return static_cast<std::size_t>(Hash{}(k) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (capacity() - 1);
  }
  /// The first empty slot of `k`'s probe run.
  [[nodiscard]] std::size_t free_slot(Key k) const {
    std::size_t i = home(k);
    while (!empty(slots_[i])) i = next(i);
    return i;
  }

  void rehash(std::size_t cap) {
    std::vector<Row> old = std::exchange(slots_, std::vector<Row>(cap));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (const Row& r : old) {
      if (!empty(r)) slots_[free_slot(r.key())] = r;
    }
  }

  std::vector<Row> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 0;  // 64 − log2(capacity())
};

/// Fibonacci hashing: multiplying by 2⁶⁴/φ spreads nearby ids over the
/// top bits RowTable takes its home slots from.
inline std::uint64_t fibonacci_hash(std::uint64_t x) {
  return x * 0x9E3779B97F4A7C15ULL;
}

}  // namespace vs::tracking
