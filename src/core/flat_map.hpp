#pragma once

/// \file flat_map.hpp
/// FlatPointMap<V>: an open-addressing hash map keyed by PointKey, built for
/// the evaluation caches. Compared to unordered_map<string, V> it performs
/// no per-node allocation, probes contiguous memory (linear probing over a
/// power-of-two slot array), and never rehashes a key — PointKey carries its
/// hash, computed once at derivation. Entries are never removed one by one,
/// only all at once (clear()), so the table needs no tombstones.
///
/// V must be default-constructible and movable. Not thread-safe.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/point_key.hpp"

namespace harmony {

template <typename V>
class FlatPointMap {
 public:
  FlatPointMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Pointer to the mapped value, or nullptr. Never allocates.
  [[nodiscard]] V* find(const PointKey& k) noexcept {
    const std::size_t i = find_slot(k);
    return i == npos ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(const PointKey& k) const noexcept {
    const std::size_t i = find_slot(k);
    return i == npos ? nullptr : &slots_[i].value;
  }

  /// Insert a default-constructed value under `k` unless present. Returns
  /// {value, inserted}. The key is copied only on actual insertion.
  std::pair<V*, bool> try_emplace(const PointKey& k) {
    if (std::size_t i = find_slot(k); i != npos) return {&slots_[i].value, false};
    const std::size_t i = insert_fresh(k);
    return {&slots_[i].value, true};
  }

  /// Insert or overwrite the mapping for `k`; returns the stored value.
  V& insert_or_assign(const PointKey& k, V v) {
    auto [val, inserted] = try_emplace(k);
    *val = std::move(v);
    return *val;
  }

  /// Drop every entry but keep the slot array for reuse.
  void clear() noexcept {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) {
        slots_[i] = Slot{};
        used_[i] = 0;
      }
    }
    size_ = 0;
  }

  /// Pre-size so `n` entries insert without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * kMaxLoadNum < n * kMaxLoadDen) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Visit every (key, value) pair in unspecified order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) f(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    PointKey key;
    V value{};
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;
  // Max load factor 7/8: linear probing stays short and growth is rare.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  [[nodiscard]] std::size_t find_slot(const PointKey& k) const noexcept {
    if (slots_.empty()) return npos;
    std::size_t i = k.hash() & mask_;
    while (used_[i]) {
      if (slots_[i].key == k) return i;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  /// Insert a key known to be absent; returns its slot index.
  std::size_t insert_fresh(const PointKey& k) {
    if (slots_.empty() || (size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t i = place(k.hash());
    slots_[i].key = k;
    used_[i] = 1;
    ++size_;
    return i;
  }

  /// First free slot on hash's probe sequence (capacity is never full).
  [[nodiscard]] std::size_t place(std::uint64_t hash) const noexcept {
    std::size_t i = hash & mask_;
    while (used_[i]) i = (i + 1) & mask_;
    return i;
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.clear();
    slots_.resize(new_cap);
    used_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      const std::size_t j = place(old_slots[i].key.hash());
      slots_[j] = std::move(old_slots[i]);
      used_[j] = 1;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace harmony
