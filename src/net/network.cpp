#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eona::net {

// Re-solve rates for the dirty component: the flows whose spec changed plus
// everything transitively sharing a link with them. The BFS alternates
// between the two frontiers (flows -> their links, links -> flows on them)
// until closed; because the closure absorbs every flow on every visited
// link, the component can be re-solved against full link capacities and the
// result is bit-identical to a from-scratch solve (fairshare.hpp solves
// connected components independently in both cases).
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
      for (LinkId lid : slots_[slot].path) {
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

  // Every affected link's allocation is rebuilt below; links that lost all
  // their flows (removals) must drop to zero even with nothing to solve.
  for (LinkId lid : affected_links_) link_allocated_[lid.value()] = 0.0;
  rate_changes_.clear();
  if (affected_slots_.empty()) {
    emit_recompute_events();
    return;
  }

  // Deterministic order: ascending flow id. The max-min allocation is
  // unique regardless of order, but fixed iteration keeps floating-point
  // results bit-identical between incremental and from-scratch solves. The
  // kFullSolve twin always takes the general path (sort + solver), so it
  // stays an independent oracle for the two shortcuts below.
  if (full || !adopt_link_order())
    std::sort(affected_slots_.begin(), affected_slots_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return slots_[a].id < slots_[b].id;
              });

  if (!full && one_elastic_path())
    fill_one_path();
  else
    solve_affected();

  emit_recompute_events();
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
  const Path& path = slots_[affected_slots_.front()].path;
  if (path.empty()) return false;
  for (std::uint32_t slot : affected_slots_) {
    const FlowState& flow = slots_[slot];
    if (flow.demand != kElasticDemand || flow.path != path) return false;
  }
  return true;
}

// k elastic flows on one path form one component in which every link holds
// all k flows (times the link's occurrences on the path). MaxMinSolver's
// first event is the lowest saturation level among those links, and it
// freezes every flow at once at max(0, that level); no demand binds first.
// So the rate is computed here from the same saturation_level() expression,
// with no views, union-find, adjacency or heap.
void Network::fill_one_path() {
  const Path& path = slots_[affected_slots_.front()].path;
  const auto k = static_cast<int>(affected_slots_.size());
  BitsPerSecond level = std::numeric_limits<BitsPerSecond>::infinity();
  for (LinkId lid : path) {
    const auto occurrences =
        static_cast<int>(std::count(path.begin(), path.end(), lid));
    level = std::min(level, saturation_level(effective_capacity_[lid.value()],
                                             0.0, k * occurrences));
  }
  const BitsPerSecond rate = std::max(0.0, level);
  for (std::uint32_t slot : affected_slots_) apply_rate(slots_[slot], rate);
}

void Network::solve_affected() {
  solve_views_.clear();
  solve_views_.reserve(affected_slots_.size());
  for (std::uint32_t slot : affected_slots_) {
    const FlowState& flow = slots_[slot];
    solve_views_.push_back(
        FlowView{flow.path.data(), flow.path.size(), flow.demand});
  }
  solver_.solve(*topo_, solve_views_, effective_capacity_, solve_rates_);
  for (std::size_t i = 0; i < affected_slots_.size(); ++i)
    apply_rate(slots_[affected_slots_[i]], solve_rates_[i]);
}

void Network::apply_rate(FlowState& flow, BitsPerSecond new_rate) {
  // Report flows whose rate actually moved. Exact comparison is correct:
  // an untouched component re-solves bit-identically. Zero-rate flows on a
  // down path are reported unconditionally so a 0 -> 0 reroute onto a dead
  // link still surfaces as strandable (see transfer.hpp).
  if (new_rate != flow.rate || (new_rate == 0.0 && !path_up(flow.path)))
    rate_changes_.push_back(RateChange{flow.id, new_rate, flow.tag});
  flow.rate = new_rate;
  for (LinkId lid : flow.path) link_allocated_[lid.value()] += new_rate;
}

// Observational only; fires after the rate vector is final. Saturation is
// edge-triggered per link (one event per threshold crossing), checked over
// the affected links -- an unaffected link's utilization cannot have moved.
void Network::emit_recompute_events() {
  if (bus_ == nullptr) return;
  TimePoint now = clock_->now();
  bus_->publish(sim::RateRecomputeEvent{now, recompute_count_,
                                        affected_slots_.size(),
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
    if (flow.rate < flow.demand - 1e-9) return true;
  }
  return false;
}

}  // namespace eona::net
