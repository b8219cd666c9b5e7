// Max-min fair bandwidth allocation (progressive filling / water-filling).
//
// This is the core of the fluid network model: given the set of flows, each
// with a route and an upper demand cap, compute the rate vector that is
// max-min fair subject to link capacities. TCP-style elastic flows use an
// effectively infinite demand and are limited only by their bottleneck link.
//
// The solver decomposes the conflict graph (flows sharing links) into
// connected components with a union-find pass and water-fills each component
// independently with an event queue: a min-heap of link saturation levels
// plus a sorted demand freeze order replaces the per-round full scans of the
// naive progressive-filling loop. Because components never interact, a
// component's rates depend only on its own flows and links -- this is what
// lets Network re-solve just the dirty component after a mutation and still
// produce bit-identical results to a from-scratch solve (see network.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace eona::net {

/// Input to the allocator: one flow's route and demand ceiling.
struct FlowSpec {
  Path path;                 ///< links the flow traverses (may be empty: src==dst)
  BitsPerSecond demand = 0;  ///< upper bound on useful rate (inf for elastic)
};

/// Non-owning view of one flow's route + demand. Lets callers that already
/// store paths (Network's flow table) feed the solver without copying them.
struct FlowView {
  const LinkId* links = nullptr;
  std::size_t link_count = 0;
  BitsPerSecond demand = 0;
};

/// Water level at which a link saturates: its capacity left after the
/// frozen flows, split over the `active` unfrozen flows crossing it (a flow
/// counts once per occurrence of the link on its path). Rounding in `frozen`
/// can push the residual a hair below zero; a zero-capacity (down) link must
/// freeze its flows at exactly 0, never at a negative share. The one home of
/// the formula: MaxMinSolver's link events and Network's one-path shortcut.
[[nodiscard]] inline double saturation_level(BitsPerSecond capacity,
                                             BitsPerSecond frozen,
                                             int active) {
  double level = (capacity - frozen) / active;
  return level < 0.0 ? 0.0 : level;
}

/// Reusable max-min solver. Holds per-link scratch (epoch-stamped, so a
/// solve touching k links costs O(k), not O(L)) and the component/event
/// structures, so repeated solves over the same topology do not reallocate.
///
/// The allocation is computed per connected component of the flow/link
/// conflict graph; within a component, water-filling is event-driven:
/// all unfrozen flows sit at a common level t, a min-heap keyed by the level
/// at which each link saturates ((capacity - frozen) / active) supplies the
/// next link event, and a demand-sorted order supplies the next flow whose
/// cap is reached. Complexity O((F * pathlen) log(F * pathlen) + touched
/// links) per solve instead of O(rounds * (L + F * pathlen)).
class MaxMinSolver {
 public:
  /// Computes rates for `flows` (same order) into `rates` using per-link
  /// `capacities` (indexed by link id; must cover every referenced link).
  /// Flows with an empty path are local (src == dst) and receive exactly
  /// their (finite) demand; zero-demand flows receive zero.
  void solve(const Topology& topo, const std::vector<FlowView>& flows,
             const std::vector<BitsPerSecond>& capacities,
             std::vector<BitsPerSecond>& rates);

 private:
  struct Event {
    double level;        ///< water level at which the link saturates
    std::uint32_t link;
    std::uint32_t gen;   ///< link generation at push time (stale detection)
  };

  void solve_component(const std::vector<std::uint32_t>& comp,
                       const std::vector<FlowView>& flows,
                       const std::vector<BitsPerSecond>& capacities,
                       std::vector<BitsPerSecond>& rates);
  void push_event(std::uint32_t link, const std::vector<BitsPerSecond>& caps);
  std::uint32_t find(std::uint32_t f);

  // --- per-link scratch, lazily initialised via epoch stamps ---------------
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> owner_epoch_;  // union-find link-owner validity
  std::vector<std::uint32_t> owner_;        // first flow seen on the link
  std::vector<std::uint64_t> state_epoch_;  // component link-state validity
  std::vector<int> active_;                 // unfrozen flows crossing the link
  std::vector<double> frozen_alloc_;        // sum of frozen rates on the link
  std::vector<std::uint8_t> saturated_;
  std::vector<std::uint32_t> gen_;          // bumped on every state change
  std::vector<std::uint8_t> has_event_;     // a fresh heap entry exists
  std::vector<std::vector<std::uint32_t>> adj_;  // link -> flows crossing it

  // --- per-flow / per-component scratch ------------------------------------
  std::vector<std::uint32_t> parent_;       // union-find over flow positions
  std::vector<std::uint8_t> frozen_;
  std::vector<std::uint32_t> root_comp_;    // root position -> component idx
  std::vector<std::vector<std::uint32_t>> components_;
  std::vector<LinkId> comp_links_;
  std::vector<std::pair<double, std::uint32_t>> demand_order_;
  std::vector<Event> heap_;
};

/// Computes the max-min fair allocation for `flows` over `topo`, using
/// `capacities` (one per link, indexed by link id) instead of the static
/// topology capacities -- the Network layer owns dynamic capacity (server
/// shutdown, degradation). Returns one rate per flow (same order as input).
[[nodiscard]] std::vector<BitsPerSecond> max_min_allocation(
    const Topology& topo, const std::vector<FlowSpec>& flows,
    const std::vector<BitsPerSecond>& capacities);

/// Convenience overload using the topology's static capacities.
[[nodiscard]] std::vector<BitsPerSecond> max_min_allocation(
    const Topology& topo, const std::vector<FlowSpec>& flows);

}  // namespace eona::net
