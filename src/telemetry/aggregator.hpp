// Group-by aggregation: the "big data platform" stand-in.
//
// Both aggregators intern dimension tuples into dense GroupIds once
// (interner.hpp) and keep their per-group state in flat tables keyed by
// those ids (group_table.hpp), so the per-beacon ingest path is one
// packed-key hash plus integer-indexed array updates -- no per-beacon
// struct hashing or node allocation. Their fixed footprint follows the
// groups actually seen, not a preset fan-out: an AppP that aggregates two
// to four (ISP, CDN) groups holds a few hundred bytes per aggregator
// before its first beacon.
//
// GroupByAggregator keys incoming beacons by a projection of their
// dimensions (e.g. per (ISP, CDN)) and maintains a mergeable aggregate plus
// median/p90 buffering-ratio sketches per group. WindowedAggregator adds a
// rotating time-bucket ring so queries cover only the recent past -- the
// freshness the A2I interface exports -- and maintains the window merge
// incrementally: a per-group prefix aggregate over all live buckets except
// the newest is cached and refolded only when the window position moves, so
// query() is O(1) and snapshot() is O(groups) amortized instead of
// O(buckets x groups) per call.
//
// Canonical merge semantics (and the contract the property test pins
// against a from-scratch oracle, bit for bit): a group's windowed aggregate
// is the left-fold, starting from a default MetricAggregate, of its
// per-bucket aggregates over live buckets in chronological order. The
// incremental path reproduces exactly that fold -- the cached prefix is the
// fold over all but the newest bucket and the newest bucket's aggregate is
// merged last -- rather than approximating expiry by floating-point
// subtraction, which could never be bit-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/group_table.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/p2_quantile.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Unwindowed group-by over a fixed projection mask.
class GroupByAggregator {
 public:
  explicit GroupByAggregator(Dim mask) : interner_(mask) {}

  void ingest(const SessionRecord& record) {
    GroupId id = interner_.intern(record.dims);
    Group& group = groups_.at(id);
    group.aggregate.add(record.metrics);
    group.buffering_p50.add(record.metrics.buffering_ratio);
    group.buffering_p90.add(record.metrics.buffering_ratio);
  }

  [[nodiscard]] Dim mask() const { return interner_.mask(); }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  [[nodiscard]] const MetricAggregate* find(const Dimensions& dims) const {
    const Group* group = groups_.find(interner_.find(dims));
    return group == nullptr ? nullptr : &group->aggregate;
  }

  /// p50/p90 buffering ratio estimates for a group; {0,0} when unseen.
  [[nodiscard]] std::pair<double, double> buffering_percentiles(
      const Dimensions& dims) const {
    const Group* group = groups_.find(interner_.find(dims));
    if (group == nullptr || group->buffering_p50.empty()) return {0.0, 0.0};
    return {group->buffering_p50.value(), group->buffering_p90.value()};
  }

  /// Deterministically ordered snapshot of all groups.
  [[nodiscard]] std::vector<std::pair<Dimensions, MetricAggregate>> snapshot()
      const {
    std::vector<std::pair<Dimensions, MetricAggregate>> result;
    result.reserve(groups_.size());
    for (const auto& [id, group] : groups_.entries())
      result.emplace_back(interner_.dims_of(id), group.aggregate);
    std::sort(result.begin(), result.end(), [](const auto& a, const auto& b) {
      return dim_order(a.first, b.first);
    });
    return result;
  }

  void clear() {
    interner_ = DimensionInterner(interner_.mask());
    groups_.clear();
  }

 private:
  struct Group {
    MetricAggregate aggregate;
    P2Quantile buffering_p50{0.5};
    P2Quantile buffering_p90{0.9};
  };

  DimensionInterner interner_;
  GroupTable<Group> groups_;
};

/// Time-windowed group-by: a ring of bucket tables covering the trailing
/// window, with an incrementally maintained per-group merge (see file
/// header). Buckets older than the window are recycled lazily as time
/// advances.
class WindowedAggregator {
 public:
  /// `window` trailing seconds of data retained, in `buckets` equal slices.
  WindowedAggregator(Dim mask, Duration window, std::size_t buckets)
      : interner_(mask),
        bucket_span_(window / static_cast<double>(buckets)),
        ring_(buckets) {
    EONA_EXPECTS(window > 0.0);
    EONA_EXPECTS(buckets >= 2);
  }

  void ingest(const SessionRecord& record) {
    GroupId id = interner_.intern(record.dims);
    std::int64_t idx = index_of(record.timestamp);
    Bucket& bucket = bucket_for(idx);
    bucket.groups.at(id).add(record.metrics);
    // Appends to the newest cached bucket leave the prefix fold intact;
    // anything else (older bucket, or a bucket beyond the cached window
    // position) changes what the fold must cover. A materialized snapshot
    // is stale either way.
    if (idx != cached_newest_) cache_valid_ = false;
    snap_valid_ = false;
  }

  /// Merged aggregate for `dims`' group over the window ending at `now`.
  /// Empty aggregate when the group produced no beacons in the window.
  [[nodiscard]] MetricAggregate query(const Dimensions& dims,
                                      TimePoint now) const {
    refresh_cache(index_of(now));
    GroupId id = interner_.find(dims);
    if (id == kNoGroup) return {};
    return merged_of(id, bucket_at(cached_newest_));
  }

  /// All groups seen in the window ending at `now`, deterministically
  /// ordered. Returns a reference to an internally memoized vector: valid
  /// until the next ingest() or a read at a different window position. The
  /// controller reads several snapshots per control tick at one position,
  /// so repeat calls are O(1) instead of re-copying O(groups) state.
  [[nodiscard]] const std::vector<std::pair<Dimensions, MetricAggregate>>&
  snapshot(TimePoint now) const {
    refresh_cache(index_of(now));
    if (snap_valid_) return snap_;
    refresh_order();
    snap_.clear();
    // Pre-reserve from the live buckets' group counts: an upper bound on
    // (and usually close to) the number of distinct groups in the window.
    std::size_t live_entries = 0;
    for (const Bucket& bucket : ring_)
      if (bucket_live(bucket.index)) live_entries += bucket.groups.size();
    snap_.reserve(std::min(live_entries, order_.size()));
    const Bucket* newest = bucket_at(cached_newest_);
    for (GroupId id : order_) {
      MetricAggregate merged = merged_of(id, newest);
      if (merged.empty()) continue;
      snap_.emplace_back(interner_.dims_of(id), merged);
    }
    snap_valid_ = true;
    return snap_;
  }

  [[nodiscard]] Duration window() const {
    return bucket_span_ * static_cast<double>(ring_.size());
  }

 private:
  struct Bucket {
    std::int64_t index = -1;  ///< which bucket_span_-slice of time this holds
    GroupTable<MetricAggregate> groups;
  };

  [[nodiscard]] std::int64_t index_of(TimePoint t) const {
    return static_cast<std::int64_t>(t / bucket_span_);
  }

  Bucket& bucket_for(std::int64_t idx) {
    Bucket& bucket = ring_[static_cast<std::size_t>(idx) % ring_.size()];
    if (bucket.index != idx) {  // recycle an expired slot
      bucket.index = idx;
      bucket.groups.clear();
    }
    return bucket;
  }

  /// Is the bucket holding slice `idx` live for the cached window position?
  [[nodiscard]] bool bucket_live(std::int64_t idx) const {
    if (idx < 0) return false;
    std::int64_t oldest =
        cached_newest_ - static_cast<std::int64_t>(ring_.size()) + 1;
    return idx >= oldest && idx <= cached_newest_;
  }

  /// The bucket currently holding slice `idx`, or nullptr.
  [[nodiscard]] const Bucket* bucket_at(std::int64_t idx) const {
    if (idx < 0) return nullptr;
    const Bucket& bucket = ring_[static_cast<std::size_t>(idx) % ring_.size()];
    return bucket.index == idx ? &bucket : nullptr;
  }

  /// Rebuild the per-group prefix fold for the window ending at bucket
  /// `newest`. O(buckets x groups), paid once per window position instead
  /// of on every query/snapshot. The fold runs bucket by bucket, oldest to
  /// newest-1, each bucket's entries in insertion order: every group meets
  /// its buckets in chronological order, so each slot ends as exactly the
  /// left fold the canonical from-scratch merge computes.
  void refresh_cache(std::int64_t newest) const {
    if (cache_valid_ && cached_newest_ == newest) return;
    cached_newest_ = newest;
    cache_valid_ = true;
    snap_valid_ = false;
    ++epoch_;
    if (prefix_.size() < interner_.size()) prefix_.resize(interner_.size());
    std::int64_t oldest =
        newest - static_cast<std::int64_t>(ring_.size()) + 1;
    for (std::int64_t idx = oldest; idx < newest; ++idx) {
      const Bucket* bucket = bucket_at(idx);
      if (bucket == nullptr) continue;
      for (const auto& [id, agg] : bucket->groups.entries()) {
        Prefix& pre = prefix_[id];
        // Epoch stamps let every rebuild start from logically-empty slots
        // without re-zeroing the whole array; the first contribution is
        // an assignment (== merge into empty), later ones merge.
        if (pre.stamp != epoch_) {
          pre.stamp = epoch_;
          pre.agg = agg;
        } else {
          pre.agg.merge(agg);
        }
      }
    }
  }

  /// Canonical windowed aggregate of one group at the cached position:
  /// prefix fold, then the newest bucket's contribution last.
  [[nodiscard]] MetricAggregate merged_of(GroupId id,
                                          const Bucket* newest) const {
    MetricAggregate merged;
    if (id < prefix_.size() && prefix_[id].stamp == epoch_)
      merged = prefix_[id].agg;
    if (newest != nullptr) {
      if (const MetricAggregate* agg = newest->groups.find(id))
        merged.merge(*agg);
    }
    return merged;
  }

  /// Keep the deterministic dims-sorted emit order cached; it only changes
  /// when a new group is interned.
  void refresh_order() const {
    if (order_.size() == interner_.size()) return;
    for (auto id = static_cast<GroupId>(order_.size());
         id < interner_.size(); ++id)
      order_.push_back(id);
    std::sort(order_.begin(), order_.end(), [this](GroupId a, GroupId b) {
      return dim_order(interner_.dims_of(a), interner_.dims_of(b));
    });
  }

  DimensionInterner interner_;
  Duration bucket_span_;
  std::vector<Bucket> ring_;

  // Incremental window state (const query paths maintain it lazily).
  struct Prefix {
    MetricAggregate agg;
    std::uint64_t stamp = 0;  ///< epoch that last wrote this slot
  };
  mutable std::vector<Prefix> prefix_;  ///< indexed by GroupId
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<GroupId> order_;           ///< dims-sorted ids
  mutable std::vector<std::pair<Dimensions, MetricAggregate>>
      snap_;  ///< memoized snapshot for the current window contents
  mutable std::int64_t cached_newest_ =
      std::numeric_limits<std::int64_t>::min();
  mutable bool cache_valid_ = false;
  mutable bool snap_valid_ = false;
};

}  // namespace eona::telemetry
