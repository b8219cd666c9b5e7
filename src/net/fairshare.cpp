#include "net/fairshare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"

namespace eona::net {

namespace {
constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
}  // namespace

std::uint32_t MaxMinSolver::find(std::uint32_t f) {
  while (parent_[f] != f) {
    parent_[f] = parent_[parent_[f]];
    f = parent_[f];
  }
  return f;
}

void MaxMinSolver::push_event(std::uint32_t link,
                              const std::vector<BitsPerSecond>& caps) {
  double level =
      saturation_level(caps[link], frozen_alloc_[link], active_[link]);
  heap_.push_back(Event{level, link, gen_[link]});
  has_event_[link] = 1;
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Event& a, const Event& b) {
                   if (a.level != b.level) return a.level > b.level;
                   if (a.link != b.link) return a.link > b.link;
                   return a.gen > b.gen;
                 });
}

void MaxMinSolver::solve(const Topology& topo,
                         const std::vector<FlowView>& flows,
                         const std::vector<BitsPerSecond>& capacities,
                         std::vector<BitsPerSecond>& rates) {
  EONA_EXPECTS(capacities.size() == topo.link_count());
  const std::size_t flow_count = flows.size();
  const std::size_t link_count = topo.link_count();
  rates.assign(flow_count, 0.0);
  frozen_.assign(flow_count, 0);
  parent_.resize(flow_count);

  if (owner_epoch_.size() < link_count) {
    owner_epoch_.resize(link_count, 0);
    owner_.resize(link_count, kNone);
    state_epoch_.resize(link_count, 0);
    active_.resize(link_count, 0);
    frozen_alloc_.resize(link_count, 0.0);
    saturated_.resize(link_count, 0);
    gen_.resize(link_count, 0);
    has_event_.resize(link_count, 0);
    adj_.resize(link_count);
  }
  ++epoch_;

  // Pass 1: settle trivial flows (zero demand, local) and union flows that
  // share a link. Links are "owned" by the first flow that touches them.
  std::size_t nontrivial = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    EONA_EXPECTS(flows[f].demand >= 0.0);
    if (flows[f].demand <= kEps) {
      frozen_[f] = 1;  // zero-demand flows get zero
      continue;
    }
    if (flows[f].link_count == 0) {
      // Local flow: no shared links, gets its full demand immediately.
      // An elastic (infinite-demand) flow must cross at least one link.
      EONA_EXPECTS(std::isfinite(flows[f].demand));
      rates[f] = flows[f].demand;
      frozen_[f] = 1;
      continue;
    }
    ++nontrivial;
    auto pos = static_cast<std::uint32_t>(f);
    parent_[f] = pos;
    for (std::size_t i = 0; i < flows[f].link_count; ++i) {
      std::uint32_t l = flows[f].links[i].value();
      if (owner_epoch_[l] != epoch_) {
        owner_epoch_[l] = epoch_;
        owner_[l] = pos;
      } else {
        std::uint32_t a = find(pos);
        std::uint32_t b = find(owner_[l]);
        if (a != b) parent_[b] = a;
      }
    }
  }
  if (nontrivial == 0) return;

  // Pass 2: bucket flows into components, in first-appearance (= ascending
  // input position) order, then water-fill each component independently.
  root_comp_.assign(flow_count, kNone);
  std::size_t component_count = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (frozen_[f]) continue;
    std::uint32_t root = find(static_cast<std::uint32_t>(f));
    if (root_comp_[root] == kNone) {
      root_comp_[root] = static_cast<std::uint32_t>(component_count);
      if (components_.size() <= component_count) components_.emplace_back();
      components_[component_count].clear();
      ++component_count;
    }
    components_[root_comp_[root]].push_back(static_cast<std::uint32_t>(f));
  }
  for (std::size_t c = 0; c < component_count; ++c)
    solve_component(components_[c], flows, capacities, rates);
}

void MaxMinSolver::solve_component(const std::vector<std::uint32_t>& comp,
                                   const std::vector<FlowView>& flows,
                                   const std::vector<BitsPerSecond>& caps,
                                   std::vector<BitsPerSecond>& rates) {
  // Initialise the component's link state. A link occurring k times in one
  // path is charged k times, mirroring how load accounting counts it.
  comp_links_.clear();
  for (std::uint32_t f : comp) {
    for (std::size_t i = 0; i < flows[f].link_count; ++i) {
      std::uint32_t l = flows[f].links[i].value();
      if (state_epoch_[l] != epoch_) {
        state_epoch_[l] = epoch_;
        active_[l] = 0;
        frozen_alloc_[l] = 0.0;
        saturated_[l] = 0;
        gen_[l] = 0;
        has_event_[l] = 0;
        adj_[l].clear();
        comp_links_.push_back(LinkId(static_cast<LinkId::rep_type>(l)));
      }
      ++active_[l];
      adj_[l].push_back(f);
    }
  }

  // Demand freeze order: ascending (demand, position). Every unfrozen flow
  // sits at the common water level, so the next demand to bind is always the
  // smallest remaining one -- a pointer scan, no per-round minimum.
  demand_order_.clear();
  for (std::uint32_t f : comp)
    if (std::isfinite(flows[f].demand))
      demand_order_.emplace_back(flows[f].demand, f);
  std::sort(demand_order_.begin(), demand_order_.end());
  std::size_t next_demand = 0;

  auto event_before = [](const Event& a, const Event& b) {
    if (a.level != b.level) return a.level > b.level;
    if (a.link != b.link) return a.link > b.link;
    return a.gen > b.gen;
  };
  heap_.clear();
  for (LinkId lid : comp_links_) push_event(lid.value(), caps);

  double level = 0.0;
  std::size_t unfrozen = comp.size();

  // Freezing only bumps the link generation; the replacement heap entry is
  // pushed lazily when the stale one reaches the top. A freeze can only
  // RAISE a link's saturation level (the frozen rate is at most the link's
  // equal share), so stale entries underestimate and popping them first is
  // safe. This keeps the heap at O(links) instead of O(freezes x pathlen).
  auto freeze = [&](std::uint32_t f, double rate) {
    frozen_[f] = 1;
    rates[f] = rate;
    --unfrozen;
    for (std::size_t i = 0; i < flows[f].link_count; ++i) {
      std::uint32_t l = flows[f].links[i].value();
      --active_[l];
      frozen_alloc_[l] += rate;
      ++gen_[l];
      has_event_[l] = 0;
    }
  };

  while (unfrozen > 0) {
    while (next_demand < demand_order_.size() &&
           frozen_[demand_order_[next_demand].second])
      ++next_demand;
    double t_demand = next_demand < demand_order_.size()
                          ? demand_order_[next_demand].first
                          : kInf;

    // Drop stale heap entries (the link's state moved since the push),
    // re-pushing the link's current event if it still needs one.
    while (!heap_.empty()) {
      Event top = heap_.front();
      if (saturated_[top.link] || gen_[top.link] != top.gen) {
        std::pop_heap(heap_.begin(), heap_.end(), event_before);
        heap_.pop_back();
        if (!saturated_[top.link] && !has_event_[top.link] &&
            active_[top.link] > 0)
          push_event(top.link, caps);
        continue;
      }
      break;
    }
    double t_link = heap_.empty() ? kInf : heap_.front().level;
    EONA_ASSERT(t_demand < kInf || t_link < kInf);

    if (t_demand <= t_link) {
      // The water level reaches one or more demand caps first.
      level = std::max(level, t_demand);
      while (next_demand < demand_order_.size() &&
             demand_order_[next_demand].first <= level + kEps) {
        auto [demand, f] = demand_order_[next_demand];
        ++next_demand;
        if (!frozen_[f]) freeze(f, std::min(level, demand));
      }
    } else {
      // A link saturates: every unfrozen flow crossing it freezes at the
      // current level. max() guards against rounding pushing an event
      // fractionally into the past after a neighbouring freeze.
      Event event = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), event_before);
      heap_.pop_back();
      level = std::max(level, event.level);
      saturated_[event.link] = 1;
      for (std::uint32_t f : adj_[event.link])
        if (!frozen_[f]) freeze(f, std::min(level, flows[f].demand));
    }
  }
}

std::vector<BitsPerSecond> max_min_allocation(
    const Topology& topo, const std::vector<FlowSpec>& flows,
    const std::vector<BitsPerSecond>& capacities) {
  // Reuse one solver per thread so repeated calls keep their scratch
  // allocations warm (the solver is epoch-stamped, so no reset is needed).
  thread_local MaxMinSolver solver;
  thread_local std::vector<FlowView> views;
  views.clear();
  views.reserve(flows.size());
  for (const FlowSpec& spec : flows)
    views.push_back(FlowView{spec.path.data(), spec.path.size(), spec.demand});
  std::vector<BitsPerSecond> rates;
  solver.solve(topo, views, capacities, rates);
  return rates;
}

std::vector<BitsPerSecond> max_min_allocation(
    const Topology& topo, const std::vector<FlowSpec>& flows) {
  std::vector<BitsPerSecond> capacities(topo.link_count());
  for (std::size_t l = 0; l < topo.link_count(); ++l)
    capacities[l] =
        topo.link(LinkId(static_cast<LinkId::rep_type>(l))).capacity;
  return max_min_allocation(topo, flows, capacities);
}

}  // namespace eona::net
