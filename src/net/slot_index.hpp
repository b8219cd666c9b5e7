// Flat id -> slot index for the data plane's slot vectors (Network's flows,
// TransferManager's transfers).
//
// Both owners issue ids sequentially and never reuse them, store their state
// in a slot vector with a free list, and look an id up on every mutation.
// This is an open-addressing table over {id, slot} pairs: Fibonacci hashing
// into a power-of-two array, linear probing, and backward-shift deletion (an
// erase pulls the following run back, so there are no tombstones and a probe
// stops at the first empty bucket). The array doubles whenever an insert
// would push the load past one half, so its size follows the live entries,
// never the ids issued; steady-state churn allocates nothing.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace eona::net {

/// Maps live ids of StrongId type `Id` to 32-bit slot numbers.
template <typename Id>
class SlotIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Entries currently held.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Buckets currently allocated (a power of two, or 0 before first use).
  [[nodiscard]] std::size_t capacity() const { return buckets_.size(); }

  /// The bucket holding `id`, or npos when `id` is not held (the probe
  /// every lookup makes; public so tests can place entries).
  [[nodiscard]] std::size_t bucket(Id id) const {
    if (size_ == 0) return npos;
    for (std::size_t i = home(id.value());; i = (i + 1) & mask_) {
      if (buckets_[i].key == kEmpty) return npos;
      if (buckets_[i].key == id.value()) return i;
    }
  }

  /// The slot of `id`, if held.
  [[nodiscard]] std::optional<std::uint32_t> find(Id id) const {
    const std::size_t i = bucket(id);
    if (i == npos) return std::nullopt;
    return buckets_[i].slot;
  }

  [[nodiscard]] bool contains(Id id) const { return bucket(id) != npos; }

  /// Add `id` -> `slot`; `id` must be valid and not already held.
  void insert(Id id, std::uint32_t slot) {
    EONA_EXPECTS(id.valid());
    if (2 * (size_ + 1) > buckets_.size())
      rehash(buckets_.empty() ? kMinCapacity : 2 * buckets_.size());
    std::size_t i = home(id.value());
    while (buckets_[i].key != kEmpty) {
      EONA_EXPECTS(buckets_[i].key != id.value());
      i = (i + 1) & mask_;
    }
    buckets_[i] = Bucket{id.value(), slot};
    ++size_;
  }

  /// Remove `id`; returns false when it was not held.
  bool erase(Id id) {
    std::size_t hole = bucket(id);
    if (hole == npos) return false;
    // Backward shift: walk the run after the hole and pull back every entry
    // whose home lies cyclically at or before the hole (it was probed past
    // it), so lookups never meet a gap inside a run.
    for (std::size_t j = (hole + 1) & mask_; buckets_[j].key != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home(buckets_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].key = kEmpty;
    --size_;
    return true;
  }

 private:
  using Key = typename Id::rep_type;
  static constexpr Key kEmpty = Id::kInvalid;
  static constexpr std::size_t kMinCapacity = 16;

  struct Bucket {
    Key key = kEmpty;
    std::uint32_t slot = 0;
  };

  /// Fibonacci hashing: sequential ids land far apart.
  [[nodiscard]] std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Bucket> old = std::exchange(buckets_, {});
    buckets_.resize(capacity);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Bucket& bucket : old) {
      if (bucket.key == kEmpty) continue;
      std::size_t i = home(bucket.key);
      while (buckets_[i].key != kEmpty) i = (i + 1) & mask_;
      buckets_[i] = bucket;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace eona::net
