// Flat storage keyed by dense GroupId.
//
// Because GroupIds are dense (the interner hands them out 0,1,2,...), a
// "table" needs no hashing at all: a direct-index slot array maps the id to
// a slot in one contiguous entry vector. Lookup and insert are a bounds
// check and two array indexes -- the integer-indexed array update the
// ingest path is built around -- and entries stay contiguous in insertion
// order, so iteration is cache-friendly and deterministic.
//
// Used by both GroupByAggregator (dense: every interned group present) and
// WindowedAggregator's ring buckets (sparse: only groups seen in that time
// slice), which is why present-entry iteration and O(present) clearing both
// matter. An empty table is two empty vectors: a window bucket that never
// sees a beacon costs no heap at all. Splitting tables by the id's low bits
// for write locality bought no speed even at 128k groups and cost 16
// headers per bucket (DESIGN.md, "Telemetry performance model").
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/interner.hpp"

namespace eona::telemetry {

/// GroupId -> V table with O(1) find-or-insert and O(present) iteration
/// and clear. A value reference stays valid until the next insert.
template <typename V>
class GroupTable {
 public:
  struct Entry {
    GroupId group;
    V value{};
  };

  /// Value slot for `id`, default-constructed on first touch.
  V& at(GroupId id) {
    if (id >= slot_.size()) slot_.resize(std::size_t{id} + 1, kEmpty);
    std::int32_t& slot = slot_[id];
    if (slot == kEmpty) {
      slot = static_cast<std::int32_t>(entries_.size());
      entries_.push_back(Entry{id, V{}});
    }
    return entries_[static_cast<std::size_t>(slot)].value;
  }

  /// Value for `id` when present, nullptr otherwise.
  [[nodiscard]] const V* find(GroupId id) const {
    if (id >= slot_.size() || slot_[id] == kEmpty) return nullptr;
    return &entries_[static_cast<std::size_t>(slot_[id])].value;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Present entries in insertion order: deterministic for a given insert
  /// sequence.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Drop all entries; touches only slots that were actually occupied, so
  /// recycling a sparse window bucket costs O(present), not O(groups).
  void clear() {
    for (const Entry& e : entries_) slot_[e.group] = kEmpty;
    entries_.clear();
  }

 private:
  static constexpr std::int32_t kEmpty = -1;

  std::vector<std::int32_t> slot_;  ///< id -> entry slot or kEmpty
  std::vector<Entry> entries_;      ///< contiguous present entries
};

}  // namespace eona::telemetry
