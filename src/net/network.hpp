// Dynamic flow-level network: live flows over a Topology with max-min fair
// rate allocation kept current across changes.
//
// Mutations (add/remove/reroute/set_demand/set_link_capacity) trigger:
// apply mutation -> recompute rates -> rates-changed hook. The hook gets a
// RateReport of what moved, which lets the TransferManager bank delivered
// bits lazily and re-predict only the completions that shifted --
// O(changed) per mutation instead of O(all transfers) (see transfer.hpp).
//
// Route classes: routes are interned -- the network stores one Path per
// distinct route and each flow holds its route's index, so "same path" is
// one integer compare. The elastic (kElasticDemand) flows of one route form
// its class, and max-min gives every member the same rate bits: the solver
// freezes all unfrozen flows of a saturating link at one level, and an
// elastic flow is never frozen by its demand, so flows with the same links
// freeze together at the same value. The network therefore keeps one rate
// per route, rate(FlowId) reads an elastic flow's rate through its route,
// and a report lists one ClassRate per route whose rate moved instead of
// one entry per member. FlowRate entries remain for demand-capped flows and
// for every flow added, rerouted or given a new demand since the last
// report (a "fresh" flow: its class may have changed, and the rate it had
// before may differ from its class's).
//
// Batching: any number of mutations can be coalesced into one recompute and
// one rates-changed callback with begin_batch()/commit() or the RAII
// Network::Batch. Inside a batch structural state (flow table, per-link
// indices) updates immediately, and rates stay stale until commit (a fresh
// flow keeps reading the rate it had before the mutation). An empty batch
// fires no hook and solves nothing.
//
// Recompute is incremental: the network maintains a per-link flow index, and
// a commit re-solves only the dirty component -- the changed flows plus
// everything transitively sharing a link with them (BFS over the conflict
// graph, seeded with the links the mutations touched). Because the solver
// water-fills each connected component independently (see fairshare.hpp),
// the incremental result is bit-identical to a from-scratch solve.
//
// The per-link index lists each link's flows in ascending flow-id order, so
// a component that one link's index covers exactly (the usual shared access
// bottleneck) needs no sort, and a component whose flows all ride one route
// with elastic demand is water-filled in one pass (see network.cpp). Before
// the BFS, a commit whose dirty flows and links all sit on one such solo
// route -- every link of the route holding nothing but that route's elastic
// flows -- is recognised in O(route length) and skips the BFS too; neither
// pass lists or writes the route's k flows. All shortcuts are exact: same
// rates, link sums and report as the general path.
//
// Owner tags: add_flow takes an opaque caller tag that every FlowRate entry
// for the flow carries back, so the hook's owner (the TransferManager)
// finds its state by index instead of by hashing the flow id.
//
// Link up/down: the Topology stays immutable; the Network overlays a dynamic
// up/down mask. A down link has effective capacity 0 (its flows' shares
// collapse to exactly 0 -- stranded, see transfer.hpp), while its configured
// capacity survives the outage and is restored on link up. Each up/down
// transition bumps the topology epoch, the signal Routing uses to invalidate
// its fallback-path cache (the Network implements LinkStateView).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "net/fairshare.hpp"
#include "net/slot_index.hpp"
#include "net/topology.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace eona::net {

/// Demand value for an elastic (TCP-like) flow limited only by the network.
inline constexpr BitsPerSecond kElasticDemand =
    std::numeric_limits<BitsPerSecond>::infinity();

/// Tag of a flow whose creator did not pass one to Network::add_flow.
inline constexpr std::uint32_t kNoFlowTag =
    std::numeric_limits<std::uint32_t>::max();

/// The route of a flow that belongs to no class (finite demand).
inline constexpr std::uint32_t kNoClass = 0xffffffffu;

/// A route class whose rate moved: every elastic flow of `route` that the
/// same report does not list on its own now runs at `rate`. A class whose
/// rate is 0 on a route with a down link is listed even when 0 is not new,
/// so stranding is always observable.
struct ClassRate {
  std::uint32_t route = 0;
  BitsPerSecond rate = 0.0;
};

/// A flow listed on its own: a demand-capped flow whose rate moved (or is 0
/// on a down path), or any fresh flow -- added, rerouted or given a new
/// demand since the last report -- moved or not.
struct FlowRate {
  FlowId flow;
  BitsPerSecond rate = 0.0;
  std::uint32_t tag = kNoFlowTag;  ///< the tag the flow was added with
  std::uint32_t route = kNoClass;  ///< its class now; kNoClass when capped
  /// The rate differs from the one the flow had before, or is 0 on a down
  /// path: what a per-flow report would have listed.
  bool moved = false;
};

/// What one recompute changed. A flow's new rate is its FlowRate entry if it
/// has one, else its route's ClassRate if it is elastic and its route has
/// one; every other flow kept its rate.
struct RateReport {
  /// One per moved class, in order of each class's lowest flow id.
  std::vector<ClassRate> classes;
  std::vector<FlowRate> flows;  ///< ascending flow id
};

/// Live flow-level network state.
class Network : public LinkStateView {
 public:
  /// Called after each recompute with its RateReport (deterministic: the
  /// same history yields the same reports).
  using RatesChangedHook = std::function<void(const RateReport&)>;

  /// How commits re-solve rates. kIncremental (default) solves only the
  /// dirty component; kFullSolve re-solves every flow on every commit with
  /// the general solver, never the one-bottleneck or solo-route shortcuts
  /// (the pre-incremental behaviour, kept as a bench baseline and test
  /// oracle -- both modes produce bit-identical rate vectors and link
  /// sums).
  enum class RecomputeMode { kIncremental, kFullSolve };

  explicit Network(const Topology& topo,
                   RecomputeMode mode = RecomputeMode::kIncremental)
      : topo_(&topo),
        mode_(mode),
        link_capacity_(topo.link_count(), 0.0),
        link_up_(topo.link_count(), 1),
        link_allocated_(topo.link_count(), 0.0),
        link_slots_(topo.link_count()),
        link_visit_(topo.link_count(), 0) {
    for (std::size_t l = 0; l < topo.link_count(); ++l)
      link_capacity_[l] =
          topo.link(LinkId(static_cast<LinkId::rep_type>(l))).capacity;
    effective_capacity_ = link_capacity_;
  }

  [[nodiscard]] const Topology& topology() const { return *topo_; }

  /// Install the rates-changed hook. Pass nullptr to clear.
  void set_rates_changed_hook(RatesChangedHook hook) {
    rates_changed_ = std::move(hook);
  }

  /// Emit RateRecomputeEvent and LinkSaturationEvent transitions on `bus`,
  /// timestamped from `clock`. Pass nullptrs to detach. Purely
  /// observational: rate allocation is identical with or without a bus.
  void set_event_bus(sim::EventBus* bus, const sim::Scheduler* clock) {
    EONA_EXPECTS((bus == nullptr) == (clock == nullptr));
    bus_ = bus;
    clock_ = clock;
    if (bus_ != nullptr && link_saturated_.empty())
      link_saturated_.assign(topo_->link_count(), 0);
  }

  /// Utilization at or above this is reported as saturated on the bus.
  static constexpr double kSaturationThreshold = 0.98;

  // --- batching ------------------------------------------------------------

  /// Open a batch: mutations apply immediately (structurally) but the rate
  /// solve and the rates-changed hook are deferred to the matching
  /// commit(). Batches nest; only the outermost commit recomputes.
  void begin_batch() { ++batch_depth_; }

  /// Close the innermost batch. Closing the outermost batch runs one rate
  /// recompute and fires the rates-changed hook -- iff the batch mutated
  /// anything.
  void commit() {
    EONA_EXPECTS(batch_depth_ > 0);
    if (--batch_depth_ > 0) return;
    if (!batch_mutated_) return;
    batch_mutated_ = false;
    recompute();
    fire_rates_changed();
  }

  /// RAII batch guard: opens a batch on construction, commits on
  /// destruction (also during unwinding, so mutations that succeeded before
  /// an exception still land consistently).
  class Batch {
   public:
    explicit Batch(Network& net) : net_(&net) { net_->begin_batch(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    ~Batch() {
      if (net_ == nullptr) return;
      try {
        net_->commit();
      } catch (...) {
        // Destructors must not throw; a hook failure during unwinding is
        // dropped rather than terminating the process.
      }
    }
    /// Commit early (e.g. to observe the new rates before scope exit).
    void commit() {
      Network* net = net_;
      net_ = nullptr;
      net->commit();
    }

   private:
    Network* net_;
  };

  /// True while inside an open batch (rates may be stale).
  [[nodiscard]] bool in_batch() const { return batch_depth_ > 0; }

  // --- mutations -----------------------------------------------------------

  /// Admit a new flow on `path` with the given demand ceiling. `tag` is
  /// opaque to the network; every FlowRate for the flow carries it.
  FlowId add_flow(const Path& path, BitsPerSecond demand = kElasticDemand,
                  std::uint32_t tag = kNoFlowTag) {
    validate_path(path);
    EONA_EXPECTS(demand >= 0.0);
    EONA_EXPECTS(!path.empty() || std::isfinite(demand));
    FlowId id(next_flow_id_++);
    std::uint32_t slot = alloc_slot();
    mark_fresh(slot);
    FlowState& flow = slots_[slot];
    flow.route = intern(path);
    flow.demand = demand;
    flow.rate = 0.0;
    flow.id = id;
    flow.tag = tag;
    flow.alive = true;
    if (demand == kElasticDemand) ++routes_[flow.route].elastic;
    slot_of_.insert(id, slot);
    index_add(slot);
    dirty_slots_.push_back(slot);
    end_mutation();
    return id;
  }

  void remove_flow(FlowId id) {
    std::uint32_t slot = require_slot(id);
    FlowState& flow = slots_[slot];
    for (LinkId lid : route_path(flow)) dirty_links_.push_back(lid);
    index_remove(slot);
    if (flow.demand == kElasticDemand) --routes_[flow.route].elastic;
    flow.alive = false;
    slot_of_.erase(id);
    free_slots_.push_back(slot);
    end_mutation();
  }

  /// Change a flow's demand ceiling (e.g. the player picked a new bitrate).
  void set_demand(FlowId id, BitsPerSecond demand) {
    EONA_EXPECTS(demand >= 0.0);
    std::uint32_t slot = require_slot(id);
    FlowState& flow = slots_[slot];
    if (flow.demand == demand) return;
    EONA_EXPECTS(!route_path(flow).empty() || std::isfinite(demand));
    flow.rate = rate_of(flow);
    mark_fresh(slot);
    Route& route = routes_[flow.route];
    if (flow.demand == kElasticDemand) --route.elastic;
    if (demand == kElasticDemand) ++route.elastic;
    flow.demand = demand;
    dirty_slots_.push_back(slot);
    end_mutation();
  }

  /// Move a flow to a new path (e.g. the ISP changed its egress point).
  void reroute(FlowId id, const Path& path) {
    validate_path(path);
    std::uint32_t slot = require_slot(id);
    EONA_EXPECTS(!path.empty() || std::isfinite(slots_[slot].demand));
    const std::uint32_t route = intern(path);
    FlowState& flow = slots_[slot];
    flow.rate = rate_of(flow);
    mark_fresh(slot);
    for (LinkId lid : route_path(flow)) dirty_links_.push_back(lid);
    index_remove(slot);
    if (flow.demand == kElasticDemand) {
      --routes_[flow.route].elastic;
      ++routes_[route].elastic;
    }
    flow.route = route;
    index_add(slot);
    dirty_slots_.push_back(slot);
    end_mutation();
  }

  /// Change a link's configured capacity (degradation, server shutdown,
  /// maintenance). Capacity 0 starves every flow crossing the link with
  /// exactly-zero shares. A down link keeps effective capacity 0; the new
  /// configured value takes effect when the link comes back up.
  void set_link_capacity(LinkId id, BitsPerSecond capacity) {
    EONA_EXPECTS(topo_->contains(id));
    EONA_EXPECTS(capacity >= 0.0);
    if (link_capacity_[id.value()] == capacity) return;
    link_capacity_[id.value()] = capacity;
    if (link_up_[id.value()]) effective_capacity_[id.value()] = capacity;
    dirty_links_.push_back(id);
    end_mutation();
  }

  /// Take a link down (its flows strand at rate exactly 0, routing stops
  /// using it) or bring it back up at its configured capacity. Each
  /// transition bumps the topology epoch. Idempotent per state.
  void set_link_up(LinkId id, bool up) {
    EONA_EXPECTS(topo_->contains(id));
    if (static_cast<bool>(link_up_[id.value()]) == up) return;
    link_up_[id.value()] = up ? 1 : 0;
    effective_capacity_[id.value()] = up ? link_capacity_[id.value()] : 0.0;
    ++topology_epoch_;
    dirty_links_.push_back(id);
    end_mutation();
  }

  // --- flow accessors ------------------------------------------------------

  [[nodiscard]] bool contains(FlowId id) const {
    return slot_of_.contains(id);
  }

  /// Currently allocated max-min fair rate of the flow: its class's rate
  /// when it is elastic. Stale inside an open batch (rates move at commit).
  [[nodiscard]] BitsPerSecond rate(FlowId id) const {
    return rate_of(slots_[require_slot(id)]);
  }

  [[nodiscard]] BitsPerSecond demand(FlowId id) const {
    return slots_[require_slot(id)].demand;
  }

  /// The flow's route. The reference stays valid until the next add_flow
  /// or reroute (either may intern a new route).
  [[nodiscard]] const Path& path(FlowId id) const {
    return route_path(slots_[require_slot(id)]);
  }

  /// The flow's interned route: its class while its demand is elastic.
  /// Stable for the network's lifetime.
  [[nodiscard]] std::uint32_t route(FlowId id) const {
    return slots_[require_slot(id)].route;
  }

  /// The path of an interned route (see route()).
  [[nodiscard]] const Path& route_path(std::uint32_t route) const {
    EONA_EXPECTS(route < routes_.size());
    return routes_[route].path;
  }

  [[nodiscard]] std::size_t flow_count() const { return slot_of_.size(); }

  /// Source node of a flow (src of its first link); invalid for local flows.
  [[nodiscard]] NodeId flow_src(FlowId id) const {
    const Path& path = this->path(id);
    if (path.empty()) return NodeId{};
    return topo_->link(path.front()).src;
  }

  /// Destination node of a flow (dst of its last link); invalid for local.
  [[nodiscard]] NodeId flow_dst(FlowId id) const {
    const Path& path = this->path(id);
    if (path.empty()) return NodeId{};
    return topo_->link(path.back()).dst;
  }

  // --- link accessors ------------------------------------------------------

  /// Sum of allocated flow rates on the link.
  [[nodiscard]] BitsPerSecond link_allocated(LinkId id) const {
    EONA_EXPECTS(topo_->contains(id));
    return link_allocated_[id.value()];
  }

  /// Current effective capacity of the link: the configured value while the
  /// link is up, 0 while it is down. Starts at the topology value. This is
  /// what controllers see -- an outage reads as capacity 0.
  [[nodiscard]] BitsPerSecond link_capacity(LinkId id) const {
    EONA_EXPECTS(topo_->contains(id));
    return effective_capacity_[id.value()];
  }

  /// Configured capacity, independent of the up/down state (what the link
  /// returns to on link up).
  [[nodiscard]] BitsPerSecond configured_link_capacity(LinkId id) const {
    EONA_EXPECTS(topo_->contains(id));
    return link_capacity_[id.value()];
  }

  /// Dynamic link health (LinkStateView). All links start up.
  [[nodiscard]] bool link_up(LinkId id) const override {
    EONA_EXPECTS(topo_->contains(id));
    return link_up_[id.value()] != 0;
  }

  /// Monotone up/down transition counter (LinkStateView); Routing's
  /// fallback-path cache is valid for exactly one epoch.
  [[nodiscard]] std::uint64_t topology_epoch() const override {
    return topology_epoch_;
  }

  /// True when every link on `path` is up (an empty path is trivially up).
  [[nodiscard]] bool path_up(const Path& path) const {
    for (LinkId lid : path)
      if (!link_up_[lid.value()]) return false;
    return true;
  }

  /// allocated / effective capacity, in [0, 1] modulo floating-point slack.
  /// A zero-capacity (or down) link reports utilisation 1 (unusable).
  [[nodiscard]] double link_utilization(LinkId id) const {
    EONA_EXPECTS(topo_->contains(id));
    BitsPerSecond cap = effective_capacity_[id.value()];
    if (cap <= 0.0) return 1.0;
    return link_allocated_[id.value()] / cap;
  }

  /// Number of flows currently crossing the link (kept incrementally by the
  /// per-link flow index; a flow whose path repeats a link counts once per
  /// occurrence, matching load accounting).
  [[nodiscard]] int link_flow_count(LinkId id) const {
    EONA_EXPECTS(topo_->contains(id));
    return static_cast<int>(link_slots_[id.value()].size());
  }

  /// A link is congested when it is nearly fully allocated and some flow on
  /// it wanted more (its demand was not met). This is the signal an InfP
  /// would derive from queue buildup / loss in a real network.
  [[nodiscard]] bool link_congested(LinkId id, double threshold = 0.98) const;

  /// Number of rate recomputations so far (for perf accounting in benches):
  /// one per unbatched mutation, one per non-empty batch commit.
  [[nodiscard]] std::uint64_t recompute_count() const {
    return recompute_count_;
  }

  /// How many of those recomputes recognised a solo route and skipped the
  /// dirty-component BFS (always 0 under kFullSolve).
  [[nodiscard]] std::uint64_t solo_route_count() const {
    return solo_route_count_;
  }

  /// Flows currently crossing a link, in ascending flow-id order
  /// (deterministic). Reads the id-ordered per-link flow index: O(k) in the
  /// number of flows on the link, independent of total flow count.
  [[nodiscard]] std::vector<FlowId> flows_on(LinkId id) const {
    EONA_EXPECTS(topo_->contains(id));
    std::vector<FlowId> result;
    result.reserve(link_slots_[id.value()].size());
    for (std::uint32_t slot : link_slots_[id.value()])
      result.push_back(slots_[slot].id);
    // A path that repeats the link leaves adjacent entries for one flow.
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
  }

  /// Rough fair share a hypothetical new flow would get on `path`: the
  /// minimum over links of capacity / (flows + 1). Used by oracle-grade
  /// controllers that may introspect the network directly.
  [[nodiscard]] BitsPerSecond predicted_share(const Path& path) const {
    BitsPerSecond share = std::numeric_limits<BitsPerSecond>::infinity();
    for (LinkId lid : path) {
      EONA_EXPECTS(topo_->contains(lid));
      BitsPerSecond cap = effective_capacity_[lid.value()];
      share = std::min(
          share,
          cap / static_cast<double>(link_slots_[lid.value()].size() + 1));
    }
    return share;
  }

 private:
  struct FlowState {
    BitsPerSecond demand = 0.0;
    /// The flow's own rate: a capped flow's allocation, or the rate a fresh
    /// flow had before it turned fresh. A settled elastic flow runs at its
    /// route's rate instead.
    BitsPerSecond rate = 0.0;
    FlowId id;
    std::uint32_t tag = kNoFlowTag;
    std::uint32_t route = 0;  ///< index into routes_
    bool alive = false;
    bool fresh = false;  ///< listed in fresh_slots_ until the next recompute
  };

  static constexpr std::uint32_t kNoRoute = 0xffffffffu;

  /// One distinct path, shared by every flow that rides it. Interned routes
  /// are kept for the network's lifetime (a network sees few distinct ones).
  struct Route {
    Path path;
    /// occurrences[i]: how often path[i] appears on the path (usually 1).
    std::vector<std::uint32_t> occurrences;
    std::uint32_t elastic = 0;  ///< live flows on it with kElasticDemand
    BitsPerSecond rate = 0.0;   ///< the class rate of its elastic flows
    std::uint64_t stamp = 0;    ///< recompute that last set `rate`
  };

  struct PathHash {
    std::size_t operator()(const Path& path) const {
      std::size_t h = path.size();
      for (LinkId lid : path)
        h = h * 0x9E3779B97F4A7C15ull + lid.value();
      return h;
    }
  };

  [[nodiscard]] const Path& route_path(const FlowState& flow) const {
    return routes_[flow.route].path;
  }

  [[nodiscard]] BitsPerSecond rate_of(const FlowState& flow) const {
    return flow.demand == kElasticDemand && !flow.fresh
               ? routes_[flow.route].rate
               : flow.rate;
  }

  /// List a slot whose flow is about to be added, rerouted or re-demanded;
  /// the next recompute reports it on its own. A recycled slot may still be
  /// listed from its previous flow.
  void mark_fresh(std::uint32_t slot) {
    if (slots_[slot].fresh) return;
    slots_[slot].fresh = true;
    fresh_slots_.push_back(slot);
  }

  /// The index of `path`'s route, interning it on first use.
  std::uint32_t intern(const Path& path) {
    auto [it, inserted] = route_of_.try_emplace(
        path, static_cast<std::uint32_t>(routes_.size()));
    if (inserted) {
      Route route{path, {}, 0, 0.0, 0};
      for (LinkId lid : path)
        route.occurrences.push_back(static_cast<std::uint32_t>(
            std::count(path.begin(), path.end(), lid)));
      routes_.push_back(std::move(route));
    }
    return it->second;
  }

  void validate_path(const Path& path) const {
    for (LinkId lid : path)
      if (!topo_->contains(lid)) throw NotFoundError("link in path");
  }

  [[nodiscard]] std::uint32_t require_slot(FlowId id) const {
    const std::optional<std::uint32_t> slot = slot_of_.find(id);
    if (!slot) throw NotFoundError("flow " + std::to_string(id.value()));
    return *slot;
  }

  std::uint32_t alloc_slot() {
    if (!free_slots_.empty()) {
      std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    slot_visit_.push_back(0);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Add one index entry per path occurrence, keeping each link's entries
  /// in ascending flow-id order. A new flow's id is the largest ever issued,
  /// so it appends; a rerouted flow is re-inserted in order.
  void index_add(std::uint32_t slot) {
    const FlowId id = slots_[slot].id;
    for (LinkId lid : route_path(slots_[slot])) {
      auto& entries = link_slots_[lid.value()];
      auto pos = entries.end();
      if (!entries.empty() && id < slots_[entries.back()].id)
        pos = std::upper_bound(entries.begin(), entries.end(), id,
                               [this](FlowId key, std::uint32_t entry) {
                                 return key < slots_[entry].id;
                               });
      entries.insert(pos, slot);
    }
  }

  /// Remove one index entry per path occurrence, in place (the order stays).
  void index_remove(std::uint32_t slot) {
    const FlowId id = slots_[slot].id;
    for (LinkId lid : route_path(slots_[slot])) {
      auto& entries = link_slots_[lid.value()];
      auto pos = std::lower_bound(entries.begin(), entries.end(), id,
                                  [this](std::uint32_t entry, FlowId key) {
                                    return slots_[entry].id < key;
                                  });
      EONA_ASSERT(pos != entries.end() && *pos == slot);
      entries.erase(pos);
    }
  }

  /// Tail of every mutation: recompute + rates-changed hook immediately
  /// when unbatched, deferred to commit() inside a batch.
  void end_mutation() {
    if (batch_depth_ > 0) {
      batch_mutated_ = true;
      return;
    }
    recompute();
    fire_rates_changed();
  }

  void fire_rates_changed() {
    if (rates_changed_ && !in_hook_) {
      in_hook_ = true;
      rates_changed_(report_);
      in_hook_ = false;
    }
  }

  void recompute();
  /// Recognise a dirty set that is exactly one route's whole component and,
  /// if so, list the component's links as the BFS would and return the
  /// route; kNoRoute otherwise.
  std::uint32_t take_solo_route();
  /// Collect the dirty component by BFS over the conflict graph.
  void collect_component();
  /// Adopt an affected link's index as the ascending-id solve order when it
  /// lists exactly the affected flows; false when no link does.
  bool adopt_link_order();
  /// True when every affected flow rides the same route with elastic demand.
  [[nodiscard]] bool one_elastic_path() const;
  /// Water-fill the component of `k` elastic flows on one route in one
  /// pass.
  void fill_one_path(std::uint32_t route, std::size_t k);
  /// Water-fill the affected flows with the general solver.
  void solve_affected();
  /// Store a route's class rate; report it if it moved (or is 0 on a down
  /// path).
  void set_class_rate(std::uint32_t route, BitsPerSecond rate);
  /// Store a flow's own new rate; report it if it is fresh, or if it is
  /// capped and its rate moved (or is 0 on a down path). A settled elastic
  /// flow is left to its class.
  void report_flow(FlowState& flow, BitsPerSecond new_rate);
  /// Publish recompute + saturation-transition events (bus attached only).
  void emit_recompute_events();

  const Topology* topo_;
  RecomputeMode mode_;

  sim::EventBus* bus_ = nullptr;
  const sim::Scheduler* clock_ = nullptr;
  std::vector<char> link_saturated_;  ///< last reported saturation state

  // Flow storage: a stable flat vector of slots (freed slots are recycled)
  // plus an id -> slot index. Flow ids are never reused.
  std::vector<FlowState> slots_;
  std::vector<std::uint32_t> free_slots_;
  SlotIndex<FlowId> slot_of_;
  // Interned routes (FlowState::route indexes routes_) and their lookup.
  std::vector<Route> routes_;
  std::unordered_map<Path, std::uint32_t, PathHash> route_of_;

  std::vector<BitsPerSecond> link_capacity_;   ///< configured
  std::vector<BitsPerSecond> effective_capacity_;  ///< configured gated by up
  std::vector<char> link_up_;
  std::uint64_t topology_epoch_ = 0;
  std::vector<BitsPerSecond> link_allocated_;
  // Per-link flow index: slots of the flows crossing each link, one entry
  // per path occurrence, in ascending flow-id order (a repeated link's
  // entries are adjacent). Kept current structurally even mid-batch.
  std::vector<std::vector<std::uint32_t>> link_slots_;

  // Dirty state accumulated since the last recompute: flows whose spec
  // changed, and links whose capacity or flow set changed. Fresh slots are
  // dirty slots whose flow the next report lists on its own.
  std::vector<std::uint32_t> dirty_slots_;
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint32_t> fresh_slots_;

  // Scratch for the dirty-component BFS and the solver (see network.cpp).
  std::vector<std::uint64_t> link_visit_;
  std::vector<std::uint64_t> slot_visit_;
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint32_t> affected_slots_;  ///< empty for a solo route
  std::vector<LinkId> affected_links_;
  std::size_t affected_flows_ = 0;  ///< the component's flow count
  std::vector<FlowView> solve_views_;
  std::vector<BitsPerSecond> solve_rates_;
  MaxMinSolver solver_;

  // What the last recompute moved, handed to the rates-changed hook.
  // Member to reuse capacity.
  RateReport report_;

  RatesChangedHook rates_changed_;
  bool in_hook_ = false;
  int batch_depth_ = 0;
  bool batch_mutated_ = false;
  FlowId::rep_type next_flow_id_ = 0;
  std::uint64_t recompute_count_ = 0;
  std::uint64_t solo_route_count_ = 0;
};

}  // namespace eona::net
