// In-memory columnar telemetry store: the queryable half of the measurement
// plane (ROADMAP item 3; SONoMA's "measurement as a service" framing).
//
// Rows arrive in narrow/long form -- (time, dimensions, metric, entity,
// value) -- from the A2I tuple stream and the event bus (see
// store_recorder.hpp). Ingest dictionary-encodes the dimension tuple through
// the same DimensionInterner the aggregation pipeline uses, interns metric
// names to dense ids, and appends to time-partitioned segments of parallel
// column vectors; each segment also lists its rows per metric, so a query
// visits only its own metric's rows. Queries filter on any attribute, group
// by any Dim mask, and aggregate count/sum/mean/p50/p90 over a half-open
// time window.
//
// Determinism contract (pinned by tests/telemetry_store_property_test.cpp):
// a query folds rows in canonical order -- segments in ascending partition
// index, append order within a segment -- with plain left-to-right double
// accumulation. A naive row-scan over the same rows in the same order is
// therefore bit-identical, which is exactly how the property test's oracle
// checks the store. Percentiles are exact order statistics (nearest-rank via
// nth_element, same convention as scenarios/common.hpp), so they are
// insensitive to fold order by construction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "sim/jsonl.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Dense identifier of one interned metric name.
using MetricId = std::uint32_t;
inline constexpr MetricId kNoMetric = 0xFFFFFFFFu;

/// All four attribute columns; the store's dictionary interns full tuples
/// and queries project them per group-by mask.
inline constexpr Dim kAllDims = Dim::kIsp | Dim::kCdn | Dim::kServer |
                                Dim::kRegion;

/// Aggregate functions the query API supports.
enum class Agg : std::uint8_t { kCount, kSum, kMean, kP50, kP90 };

[[nodiscard]] inline const char* agg_name(Agg agg) {
  switch (agg) {
    case Agg::kCount: return "count";
    case Agg::kSum: return "sum";
    case Agg::kMean: return "mean";
    case Agg::kP50: return "p50";
    case Agg::kP90: return "p90";
  }
  return "?";
}

/// One query plan: which metric, over which window, filtered how, grouped
/// how, aggregated how. Unset filters are wildcards; a set filter matches
/// rows whose attribute equals the filter value exactly (an invalid id
/// filter matches rows where that attribute is unknown).
struct StoreQuery {
  std::string metric;
  TimePoint t0 = -std::numeric_limits<double>::infinity();
  TimePoint t1 = std::numeric_limits<double>::infinity();  ///< window [t0,t1)
  std::optional<IspId> isp;
  std::optional<CdnId> cdn;
  std::optional<ServerId> server;
  std::optional<std::uint32_t> region;
  std::optional<std::uint64_t> entity;
  Dim group_by = Dim::kNone;
  Agg agg = Agg::kMean;
};

/// One result row: the projected group key, how many rows matched, and the
/// aggregate value over them.
struct StoreResultRow {
  Dimensions key;
  std::uint64_t rows = 0;
  double value = 0.0;
};

/// One row in its dump form, a JSONL line: ColumnStore::dump_rows writes
/// these fields in this order and store_replay.hpp reads them back.
struct RowLine {
  TimePoint t = 0.0;
  Dimensions dims;
  std::uint64_t entity = 0;
  std::string_view metric;  ///< the store's name, or a view into the line
  double value = 0.0;

  static void fields(auto& r, auto& f) {
    f("isp", r.dims.isp);
    f("cdn", r.dims.cdn);
    f("server", r.dims.server);
    f("region", r.dims.region);
    f("entity", r.entity);
    f("metric", r.metric);
    f("value", r.value);
  }

  void write(std::string& out) const {
    sim::LineWriter line(out, t);
    fields(*this, line);
    line.end();
  }
};

/// The columnar store proper. Single-writer, append-only; queries are const.
class ColumnStore {
 public:
  /// `segment_span` is the width of one time partition in seconds; rows at
  /// time t land in partition floor(t / segment_span).
  explicit ColumnStore(Duration segment_span = 60.0)
      : segment_span_(segment_span), dict_(kAllDims) {
    EONA_EXPECTS(segment_span > 0.0);
  }

  // --- ingest ---------------------------------------------------------

  /// Interns `name`, assigning a dense id on first sight. Hot ingest loops
  /// should intern once and use the MetricId overload of append().
  MetricId intern_metric(std::string_view name) {
    auto it = metric_ids_.find(name);
    if (it != metric_ids_.end()) return it->second;
    auto id = static_cast<MetricId>(metric_names_.size());
    metric_names_.emplace_back(name);
    metric_ids_.emplace(metric_names_.back(), id);
    return id;
  }

  /// Transparent string hashing so find_metric(string_view) avoids a
  /// temporary std::string per lookup.
  struct MetricNameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Id for `name` if already interned; kNoMetric otherwise.
  [[nodiscard]] MetricId find_metric(std::string_view name) const {
    auto it = metric_ids_.find(name);
    return it == metric_ids_.end() ? kNoMetric : it->second;
  }

  [[nodiscard]] const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  /// Whether append() can take a row at time `t`: `t` is finite and its
  /// partition index fits an int64. Simulated times always do; replay
  /// rejects lines whose time does not.
  [[nodiscard]] bool holds_time(TimePoint t) const {
    const double part = std::floor(t / segment_span_);
    return part >= -0x1p62 && part <= 0x1p62;
  }

  /// Appends one row. `entity` is the subject's raw id (link, session,
  /// provider, ...) for point lookups that dimensions do not cover.
  void append(TimePoint t, const Dimensions& dims, MetricId metric,
              std::uint64_t entity, double value) {
    EONA_EXPECTS(metric < metric_names_.size());
    Segment& seg = segment_for(t);
    if (seg.rows_of.size() <= metric) seg.rows_of.resize(metric + 1);
    seg.rows_of[metric].push_back(static_cast<std::uint32_t>(seg.t.size()));
    seg.t.push_back(t);
    seg.group.push_back(dict_.intern(dims));
    seg.metric.push_back(metric);
    seg.entity.push_back(entity);
    seg.value.push_back(value);
    ++rows_;
  }

  void append(TimePoint t, const Dimensions& dims, std::string_view metric,
              std::uint64_t entity, double value) {
    append(t, dims, intern_metric(metric), entity, value);
  }

  // --- introspection --------------------------------------------------

  [[nodiscard]] std::uint64_t row_count() const { return rows_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t group_count() const { return dict_.size(); }
  [[nodiscard]] Duration segment_span() const { return segment_span_; }
  [[nodiscard]] const DimensionInterner& dictionary() const { return dict_; }

  // --- query ----------------------------------------------------------

  /// Runs one query plan. Results hold only groups with at least one
  /// matching row, sorted by the canonical dimension order, so output is
  /// deterministic and diff-friendly.
  [[nodiscard]] std::vector<StoreResultRow> run(const StoreQuery& q) const {
    std::vector<StoreResultRow> out;
    out_slots_.clear();
    MetricId metric = find_metric(q.metric);
    if (metric == kNoMetric || !(q.t0 < q.t1)) return out;

    // Dictionary-side filter + projection: one pass over distinct groups
    // instead of per-row tuple compares.
    std::vector<GroupKeyInfo> keys = plan_groups(q);

    const bool wants_values = q.agg == Agg::kP50 || q.agg == Agg::kP90;
    std::vector<Acc> accs;
    std::vector<std::vector<double>> values;

    // Canonical fold order: ascending partition, append order within --
    // the metric's row list keeps append order, so skipping the other
    // metrics' rows changes no sum.
    for (const auto& [part, seg] : segments_) {
      if (!segment_overlaps(part, q.t0, q.t1)) continue;
      if (metric >= seg.rows_of.size()) continue;
      for (const std::uint32_t i : seg.rows_of[metric]) {
        if (seg.t[i] < q.t0 || seg.t[i] >= q.t1) continue;
        const GroupKeyInfo& info = keys[seg.group[i]];
        if (!info.pass) continue;
        if (q.entity && seg.entity[i] != *q.entity) continue;
        if (info.out == kNoGroup) {
          // First row of this projected group: materialize an accumulator.
          keys[seg.group[i]].out = assign_out(info.projected, accs, values,
                                              wants_values, out);
        }
        const GroupId slot = keys[seg.group[i]].out;
        Acc& acc = accs[slot];
        ++acc.count;
        acc.sum += seg.value[i];
        if (wants_values) values[slot].push_back(seg.value[i]);
      }
    }

    for (std::size_t slot = 0; slot < accs.size(); ++slot) {
      out[slot].rows = accs[slot].count;
      out[slot].value = finish(q.agg, accs[slot], values, slot);
    }
    std::sort(out.begin(), out.end(),
              [](const StoreResultRow& a, const StoreResultRow& b) {
                return dim_order(a.key, b.key);
              });
    return out;
  }

  // --- dump / load ----------------------------------------------------

  /// Appends every row as one JSONL line, in canonical (partition-major,
  /// append) order. Reloading a dump with store_replay.hpp's replay_jsonl()
  /// reproduces a store whose dump and query output are byte-identical to
  /// the original (doubles are printed in round-trip "%.17g" form).
  void dump_rows(std::string& out) const {
    // Reserve every row's longest rendering up front, so a dump is one
    // allocation instead of a chain of doublings.
    const std::size_t widest = widest_line();
    std::size_t bound = out.size();
    for (const auto& [part, seg] : segments_) {
      (void)part;
      for (std::size_t m = 0; m < seg.rows_of.size(); ++m)
        bound += seg.rows_of[m].size() * (widest + metric_names_[m].size());
    }
    out.reserve(bound);
    for (const auto& [part, seg] : segments_) {
      (void)part;
      for (std::size_t i = 0; i < seg.t.size(); ++i) {
        RowLine{seg.t[i], dict_.dims_of(seg.group[i]), seg.entity[i],
                metric_names_[seg.metric[i]], seg.value[i]}
            .write(out);
      }
    }
  }

  [[nodiscard]] std::string dump_rows() const {
    std::string out;
    dump_rows(out);
    return out;
  }

 private:
  struct Segment {
    std::vector<TimePoint> t;
    std::vector<GroupId> group;
    std::vector<MetricId> metric;
    std::vector<std::uint64_t> entity;
    std::vector<double> value;
    /// Per metric id: this segment's rows of that metric, in append order.
    std::vector<std::vector<std::uint32_t>> rows_of;
  };

  struct Acc {
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  /// Per-dictionary-group query plan: does the group pass the filters, what
  /// is its projected key, and which output slot (lazily assigned) holds it.
  struct GroupKeyInfo {
    bool pass = false;
    Dimensions projected;
    GroupId out = kNoGroup;
  };

  [[nodiscard]] std::int64_t partition_of(TimePoint t) const {
    return static_cast<std::int64_t>(std::floor(t / segment_span_));
  }

  [[nodiscard]] bool segment_overlaps(std::int64_t part, TimePoint t0,
                                      TimePoint t1) const {
    const double lo = static_cast<double>(part) * segment_span_;
    return lo < t1 && lo + segment_span_ > t0;
  }

  Segment& segment_for(TimePoint t) {
    const std::int64_t part = partition_of(t);
    if (last_segment_ != nullptr && last_partition_ == part)
      return *last_segment_;
    last_partition_ = part;
    last_segment_ = &segments_[part];
    return *last_segment_;
  }

  [[nodiscard]] std::vector<GroupKeyInfo> plan_groups(
      const StoreQuery& q) const {
    std::vector<GroupKeyInfo> keys(dict_.size());
    for (GroupId g = 0; g < keys.size(); ++g) {
      const Dimensions& d = dict_.dims_of(g);
      if (q.isp && d.isp != *q.isp) continue;
      if (q.cdn && d.cdn != *q.cdn) continue;
      if (q.server && d.server != *q.server) continue;
      if (q.region && d.region != *q.region) continue;
      keys[g].pass = true;
      keys[g].projected = project(d, q.group_by);
    }
    return keys;
  }

  /// Materializes the output slot for a projected key on first sight,
  /// sharing slots between dictionary groups that project to the same key.
  GroupId assign_out(const Dimensions& projected, std::vector<Acc>& accs,
                     std::vector<std::vector<double>>& values,
                     bool wants_values,
                     std::vector<StoreResultRow>& out) const {
    auto it = out_slots_.find(projected);
    if (it != out_slots_.end()) return it->second;
    auto slot = static_cast<GroupId>(accs.size());
    out_slots_.emplace(projected, slot);
    accs.emplace_back();
    if (wants_values) values.emplace_back();
    out.push_back(StoreResultRow{projected, 0, 0.0});
    return slot;
  }

  [[nodiscard]] double finish(Agg agg, const Acc& acc,
                              std::vector<std::vector<double>>& values,
                              std::size_t slot) const {
    switch (agg) {
      case Agg::kCount: return static_cast<double>(acc.count);
      case Agg::kSum: return acc.sum;
      case Agg::kMean: return acc.sum / static_cast<double>(acc.count);
      case Agg::kP50: return nearest_rank(values[slot], 0.5);
      case Agg::kP90: return nearest_rank(values[slot], 0.9);
    }
    return 0.0;
  }

  /// Lower nearest-rank percentile: index floor(q*(n-1)) of the sorted
  /// sample -- same convention as scenarios/common.hpp QoeSummary.
  [[nodiscard]] static double nearest_rank(std::vector<double>& sample,
                                           double q) {
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(sample.size() - 1));
    std::nth_element(sample.begin(),
                     sample.begin() + static_cast<std::ptrdiff_t>(rank),
                     sample.end());
    return sample[rank];
  }

  /// The longest dump line short of its metric name: every id and the
  /// entity at their maximum, both doubles as long as "%.17g" prints one
  /// (24 bytes, as for -DBL_MIN).
  [[nodiscard]] static std::size_t widest_line() {
    constexpr double kLongest = -std::numeric_limits<double>::min();
    std::string line;
    RowLine{kLongest, Dimensions{{}, {}, {}, ~std::uint32_t{0}},
            ~std::uint64_t{0}, "", kLongest}
        .write(line);
    return line.size();
  }

  Duration segment_span_;
  DimensionInterner dict_;
  std::map<std::int64_t, Segment> segments_;  ///< partition -> columns
  std::int64_t last_partition_ = 0;
  Segment* last_segment_ = nullptr;  ///< one-entry cache for the hot append
  std::vector<std::string> metric_names_;
  std::unordered_map<std::string, MetricId, MetricNameHash, std::equal_to<>>
      metric_ids_;
  std::uint64_t rows_ = 0;
  /// Scratch for run(): projected key -> output slot. Cleared per query;
  /// kept as a member so repeated queries reuse capacity.
  mutable std::unordered_map<Dimensions, GroupId> out_slots_;
};

}  // namespace eona::telemetry
