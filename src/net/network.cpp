#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eona::net {

// Re-solve rates for the dirty component: the flows whose spec changed plus
// everything transitively sharing a link with them. Because the component
// absorbs every flow on every one of its links, it can be re-solved against
// full link capacities and the result is bit-identical to a from-scratch
// solve (fairshare.hpp solves connected components independently in both
// cases).
void Network::recompute() {
  ++recompute_count_;

  const bool full = mode_ == RecomputeMode::kFullSolve;
  if (full) {
    // Every live flow is dirty. The dirty links stay: a link that lost its
    // last flow must still drop to zero allocation.
    dirty_slots_.clear();
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
      if (slots_[slot].alive) dirty_slots_.push_back(slot);
  }
  const std::uint32_t solo = full ? kNoRoute : take_solo_route();
  if (solo != kNoRoute) {
    ++solo_route_count_;
    affected_slots_.clear();
    affected_flows_ = routes_[solo].elastic;
  } else {
    collect_component();
    affected_flows_ = affected_slots_.size();
  }

  // Every affected link's allocation is rebuilt below; links that lost all
  // their flows (removals) must drop to zero even with nothing to solve.
  for (LinkId lid : affected_links_) link_allocated_[lid.value()] = 0.0;
  report_.classes.clear();
  report_.flows.clear();

  // Deterministic order: ascending flow id. The max-min allocation is
  // unique regardless of order, but fixed iteration keeps floating-point
  // results bit-identical between incremental and from-scratch solves. The
  // kFullSolve twin always takes the general path (sort + solver), so it
  // stays an independent oracle for the shortcuts.
  if (solo != kNoRoute) {
    fill_one_path(solo, affected_flows_);
  } else if (!affected_slots_.empty()) {
    if (full || !adopt_link_order())
      std::sort(affected_slots_.begin(), affected_slots_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return slots_[a].id < slots_[b].id;
                });
    if (!full && one_elastic_path())
      fill_one_path(slots_[affected_slots_.front()].route,
                    affected_slots_.size());
    else
      solve_affected();
  }
  // Every live fresh flow was dirty, so the solve reported it and cleared
  // its mark; a removed one leaves its slot marked until here.
  for (std::uint32_t slot : fresh_slots_) slots_[slot].fresh = false;
  fresh_slots_.clear();

  emit_recompute_events();
}

// A commit is exactly route P's whole component when every live dirty flow
// rides P with elastic demand, every dirty link lies on P, and every link l
// of P holds exactly elastic(P) x occurrences(l) index entries -- that is,
// nothing but P's elastic flows. The BFS would then visit P's flows and
// P's links and nothing else. Its link discovery order is the dirty links
// (first occurrence each) followed by the rest of P in path order: the
// first flow it expands, whichever it is, walks P. So the component's
// links are listed here in that order. Its flows are P's class, which
// fill_one_path solves without listing them; the bus reports the same
// sizes. With no live dirty flow, P is the route of the first entry on the
// first dirty link.
std::uint32_t Network::take_solo_route() {
  std::uint32_t route = kNoRoute;
  for (std::uint32_t slot : dirty_slots_) {
    if (slot >= slots_.size() || !slots_[slot].alive) continue;
    const FlowState& flow = slots_[slot];
    if (flow.demand != kElasticDemand) return kNoRoute;
    if (route == kNoRoute)
      route = flow.route;
    else if (flow.route != route)
      return kNoRoute;
  }
  if (route == kNoRoute) {
    if (dirty_links_.empty()) return kNoRoute;
    const std::vector<std::uint32_t>& entries =
        link_slots_[dirty_links_.front().value()];
    if (entries.empty()) return kNoRoute;
    route = slots_[entries.front()].route;
  }
  const Route& solo = routes_[route];
  const std::size_t k = solo.elastic;
  if (k == 0) return kNoRoute;
  for (std::size_t i = 0; i < solo.path.size(); ++i)
    if (link_slots_[solo.path[i].value()].size() != k * solo.occurrences[i])
      return kNoRoute;
  ++visit_epoch_;
  for (LinkId lid : solo.path) link_visit_[lid.value()] = visit_epoch_;
  for (LinkId lid : dirty_links_)
    if (link_visit_[lid.value()] != visit_epoch_) return kNoRoute;

  ++visit_epoch_;
  affected_links_.clear();
  auto discover = [this](LinkId lid) {
    if (link_visit_[lid.value()] == visit_epoch_) return;
    link_visit_[lid.value()] = visit_epoch_;
    affected_links_.push_back(lid);
  };
  for (LinkId lid : dirty_links_) discover(lid);
  for (LinkId lid : solo.path) discover(lid);
  dirty_slots_.clear();
  dirty_links_.clear();
  return route;
}

// The BFS alternates between the two frontiers (flows -> their links, links
// -> flows on them) until closed.
void Network::collect_component() {
  ++visit_epoch_;
  affected_slots_.clear();
  affected_links_.clear();
  for (std::uint32_t slot : dirty_slots_) {
    if (slot >= slots_.size() || !slots_[slot].alive) continue;
    if (slot_visit_[slot] == visit_epoch_) continue;
    slot_visit_[slot] = visit_epoch_;
    affected_slots_.push_back(slot);
  }
  for (LinkId lid : dirty_links_) {
    if (link_visit_[lid.value()] == visit_epoch_) continue;
    link_visit_[lid.value()] = visit_epoch_;
    affected_links_.push_back(lid);
  }
  dirty_slots_.clear();
  dirty_links_.clear();

  std::size_t next_slot = 0;
  std::size_t next_link = 0;
  while (next_slot < affected_slots_.size() ||
         next_link < affected_links_.size()) {
    if (next_slot < affected_slots_.size()) {
      std::uint32_t slot = affected_slots_[next_slot++];
      for (LinkId lid : route_path(slots_[slot])) {
        if (link_visit_[lid.value()] == visit_epoch_) continue;
        link_visit_[lid.value()] = visit_epoch_;
        affected_links_.push_back(lid);
      }
    } else {
      LinkId lid = affected_links_[next_link++];
      for (std::uint32_t slot : link_slots_[lid.value()]) {
        if (slot_visit_[slot] == visit_epoch_) continue;
        slot_visit_[slot] = visit_epoch_;
        affected_slots_.push_back(slot);
      }
    }
  }
}

// The BFS closure holds every flow of every affected link, so a link whose
// index has as many entries as there are affected flows, none repeated,
// lists exactly the affected flows -- already in ascending id order.
bool Network::adopt_link_order() {
  for (LinkId lid : affected_links_) {
    const std::vector<std::uint32_t>& entries = link_slots_[lid.value()];
    if (entries.size() != affected_slots_.size()) continue;
    if (std::adjacent_find(entries.begin(), entries.end()) != entries.end())
      continue;
    affected_slots_.assign(entries.begin(), entries.end());
    return true;
  }
  return false;
}

bool Network::one_elastic_path() const {
  const std::uint32_t route = slots_[affected_slots_.front()].route;
  if (routes_[route].path.empty()) return false;
  for (std::uint32_t slot : affected_slots_) {
    const FlowState& flow = slots_[slot];
    if (flow.demand != kElasticDemand || flow.route != route) return false;
  }
  return true;
}

// k elastic flows on one path form one component in which every link holds
// all k flows (times the link's occurrences on the path). MaxMinSolver's
// first event is the lowest saturation level among those links, and it
// freezes every flow at once at max(0, that level); no demand binds first.
// So the class rate is computed here from the same saturation_level()
// expression, with no views, union-find, adjacency or heap, and without
// touching the k flows: they read it through their route. Every flow gets
// the same rate, so each link's sum is k x occurrences additions of it from
// zero -- the general path's per-flow adds, in another order of equal
// terms. That chain is added up once per occurrence count, not per link.
void Network::fill_one_path(std::uint32_t r, std::size_t k) {
  const Route& route = routes_[r];
  const auto flows = static_cast<int>(k);
  BitsPerSecond level = std::numeric_limits<BitsPerSecond>::infinity();
  for (std::size_t i = 0; i < route.path.size(); ++i)
    level = std::min(
        level,
        saturation_level(effective_capacity_[route.path[i].value()], 0.0,
                         flows * static_cast<int>(route.occurrences[i])));
  const BitsPerSecond rate = std::max(0.0, level);
  set_class_rate(r, rate);
  std::uint32_t chained = 0;
  BitsPerSecond sum = 0.0;
  for (std::size_t i = 0; i < route.path.size(); ++i) {
    if (route.occurrences[i] != chained) {
      chained = route.occurrences[i];
      sum = 0.0;
      for (std::size_t n = k * chained; n > 0; --n) sum += rate;
    }
    link_allocated_[route.path[i].value()] = sum;
  }
  // The component's fresh flows are the only ones listed on their own.
  for (std::uint32_t slot : fresh_slots_)
    if (slots_[slot].alive && slots_[slot].fresh)
      report_flow(slots_[slot], rate);
  std::sort(report_.flows.begin(), report_.flows.end(),
            [](const FlowRate& a, const FlowRate& b) {
              return a.flow < b.flow;
            });
}

void Network::solve_affected() {
  solve_views_.clear();
  solve_views_.reserve(affected_slots_.size());
  for (std::uint32_t slot : affected_slots_) {
    const FlowState& flow = slots_[slot];
    const Path& path = route_path(flow);
    solve_views_.push_back(FlowView{path.data(), path.size(), flow.demand});
  }
  solver_.solve(*topo_, solve_views_, effective_capacity_, solve_rates_);
  for (std::size_t i = 0; i < affected_slots_.size(); ++i) {
    FlowState& flow = slots_[affected_slots_[i]];
    const BitsPerSecond rate = solve_rates_[i];
    // Every elastic flow of a route gets the same rate (see the file
    // comment of network.hpp); the route's first one sets the class.
    if (flow.demand == kElasticDemand &&
        routes_[flow.route].stamp != recompute_count_)
      set_class_rate(flow.route, rate);
    report_flow(flow, rate);
    for (LinkId lid : route_path(flow)) link_allocated_[lid.value()] += rate;
  }
}

// Both report what moved. Exact comparison is correct: an untouched
// component re-solves bit-identically. A zero rate on a down path is
// reported unconditionally so a 0 -> 0 reroute onto a dead link still
// surfaces as strandable (see transfer.hpp).
void Network::set_class_rate(std::uint32_t r, BitsPerSecond rate) {
  Route& route = routes_[r];
  route.stamp = recompute_count_;
  if (rate != route.rate || (rate == 0.0 && !path_up(route.path)))
    report_.classes.push_back(ClassRate{r, rate});
  route.rate = rate;
}

void Network::report_flow(FlowState& flow, BitsPerSecond new_rate) {
  const bool elastic = flow.demand == kElasticDemand;
  if (elastic && !flow.fresh) return;
  const bool moved = new_rate != flow.rate ||
                     (new_rate == 0.0 && !path_up(route_path(flow)));
  if (moved || flow.fresh)
    report_.flows.push_back(FlowRate{flow.id, new_rate, flow.tag,
                                     elastic ? flow.route : kNoClass, moved});
  flow.rate = new_rate;
  flow.fresh = false;
}

// Observational only; fires after the rate vector is final. Saturation is
// edge-triggered per link (one event per threshold crossing), checked over
// the affected links -- an unaffected link's utilization cannot have moved.
void Network::emit_recompute_events() {
  if (bus_ == nullptr) return;
  TimePoint now = clock_->now();
  bus_->publish(sim::RateRecomputeEvent{now, recompute_count_,
                                        affected_flows_,
                                        affected_links_.size()});
  for (LinkId lid : affected_links_) {
    bool saturated = link_utilization(lid) >= kSaturationThreshold;
    if (saturated == static_cast<bool>(link_saturated_[lid.value()])) continue;
    link_saturated_[lid.value()] = saturated ? 1 : 0;
    bus_->publish(sim::LinkSaturationEvent{now, lid, saturated,
                                           link_utilization(lid)});
  }
}

bool Network::link_congested(LinkId id, double threshold) const {
  EONA_EXPECTS(topo_->contains(id));
  EONA_EXPECTS(threshold > 0.0 && threshold <= 1.0);
  if (link_utilization(id) < threshold) return false;
  // Saturated AND at least one flow on it is demand-starved: some flow
  // crossing this link got less than it wanted.
  for (std::uint32_t slot : link_slots_[id.value()]) {
    const FlowState& flow = slots_[slot];
    if (rate_of(flow) < flow.demand - 1e-9) return true;
  }
  return false;
}

}  // namespace eona::net
