// Shortest-path routing over the topology. Paths are sequences of link ids;
// Dijkstra runs on link propagation delay with deterministic tie-breaking
// (lower link id wins) so routes are reproducible.
//
// Failure awareness: a Routing with an attached LinkStateView (in practice
// the Network, which owns the dynamic up/down mask) excludes down links from
// every query, so shortest_path / path_via / path_via_link return live
// fallback routes during an outage. Query results are memoised in a
// fallback-path cache invalidated whenever the view's topology epoch moves
// (every link up/down transition), so steady-state routing -- with or
// without faults -- costs one Dijkstra per (src, dst) pair per epoch.
//
// Queries copy nothing they do not have to: shortest_path hands out the
// cached path itself, and the composed queries (path_via, path_via_link)
// append cached segments to a buffer the caller owns, so a caller that
// reuses its buffer plans a route without touching the heap.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "net/topology.hpp"

namespace eona::net {

/// Read-only view of dynamic link health, implemented by net::Network. Lives
/// here (below Network in the dependency order) so Routing can consult the
/// dynamic up/down mask without depending on the flow table.
class LinkStateView {
 public:
  virtual ~LinkStateView() = default;
  /// False while the link is administratively/physically down.
  [[nodiscard]] virtual bool link_up(LinkId id) const = 0;
  /// Monotone counter bumped on every link up/down transition. Routing
  /// results are pure functions of (topology, epoch).
  [[nodiscard]] virtual std::uint64_t topology_epoch() const = 0;
};

/// An ordered sequence of links from a source node to a destination node.
/// Empty path means "src == dst" or "no route" depending on the query; use
/// Routing::has_route to disambiguate.
using Path = std::vector<LinkId>;

/// Total propagation delay along a path.
[[nodiscard]] Duration path_delay(const Topology& topo, const Path& path);

/// Validates that `path` is a contiguous walk from `src` to `dst` in `topo`.
[[nodiscard]] bool path_connects(const Topology& topo, const Path& path,
                                 NodeId src, NodeId dst);

/// Dijkstra shortest-path engine. Stateless between queries apart from the
/// topology reference; cheap enough to recompute on demand at the scales the
/// scenarios use (tens to hundreds of nodes).
class Routing {
 public:
  explicit Routing(const Topology& topo) : topo_(&topo) {}

  [[nodiscard]] const Topology& topology() const { return *topo_; }

  /// Attach (or detach with nullptr) the dynamic link-state view. With a
  /// view attached every query skips down links; with all links up the
  /// results are bit-identical to the unattached ones.
  void attach_link_state(const LinkStateView* view) {
    link_state_ = view;
    cache_.clear();
    cache_epoch_ = view != nullptr ? view->topology_epoch() : 0;
  }

  /// Shortest (min total delay) path src -> dst over the live links: the
  /// cached path itself, valid until the link-state epoch moves or a view
  /// is attached. Throws NotFoundError when no route exists.
  [[nodiscard]] const Path& shortest_path(NodeId src, NodeId dst) const;

  /// True when dst is reachable from src over the live links.
  [[nodiscard]] bool has_route(NodeId src, NodeId dst) const;

  /// Append the shortest path constrained to pass through `via` (e.g. a
  /// chosen peering point) to `out`: src->via, then via->dst.
  void path_via(NodeId src, NodeId via, NodeId dst, Path& out) const;

  /// Append the shortest path that must traverse the specific link `via`
  /// as its entry into the second segment to `out`: src -> link.src, link,
  /// link.dst -> dst. The `via` link itself is used as demanded even when
  /// down (callers pick live peering points; asserting here would hide the
  /// real policy bug). Both segments are looked up, head first, before
  /// anything is appended, so `out` is unchanged when either throws.
  void path_via_link(NodeId src, LinkId via, NodeId dst, Path& out) const;

  /// Fallback-path cache entries currently held (observability for tests).
  [[nodiscard]] std::size_t cached_path_count() const { return cache_.size(); }

 private:
  /// Memoised shortest path; (re)computed when the (src, dst) pair misses
  /// or the link-state epoch moved since the cache was filled.
  const Path& cached_shortest(NodeId src, NodeId dst) const;

  const Topology* topo_;
  const LinkStateView* link_state_ = nullptr;

  // Fallback-path cache: (src, dst) -> shortest live path, valid for one
  // topology epoch. Mutable because queries are logically const.
  mutable std::unordered_map<std::uint64_t, Path> cache_;
  mutable std::uint64_t cache_epoch_ = 0;
};

}  // namespace eona::net
