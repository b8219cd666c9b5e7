#include "net/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace eona::net {

Duration path_delay(const Topology& topo, const Path& path) {
  Duration total = 0.0;
  for (LinkId lid : path) total += topo.link(lid).delay;
  return total;
}

bool path_connects(const Topology& topo, const Path& path, NodeId src,
                   NodeId dst) {
  NodeId at = src;
  for (LinkId lid : path) {
    if (!topo.contains(lid)) return false;
    const Link& link = topo.link(lid);
    if (link.src != at) return false;
    at = link.dst;
  }
  return at == dst;
}

namespace {

struct DijkstraResult {
  std::vector<Duration> dist;
  std::vector<LinkId> via;  // link used to reach each node
  bool reached(NodeId n) const {
    return dist[n.value()] < std::numeric_limits<Duration>::infinity();
  }
};

DijkstraResult dijkstra(const Topology& topo, NodeId src,
                        const LinkStateView* state) {
  constexpr Duration kInf = std::numeric_limits<Duration>::infinity();
  DijkstraResult result{std::vector<Duration>(topo.node_count(), kInf),
                        std::vector<LinkId>(topo.node_count())};
  result.dist[src.value()] = 0.0;

  using QueueEntry = std::pair<Duration, NodeId::rep_type>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  frontier.push({0.0, src.value()});

  while (!frontier.empty()) {
    auto [d, u] = frontier.top();
    frontier.pop();
    if (d > result.dist[u]) continue;  // stale entry
    for (LinkId lid : topo.out_links(NodeId(u))) {
      if (state != nullptr && !state->link_up(lid)) continue;  // dead link
      const Link& link = topo.link(lid);
      Duration nd = d + link.delay;
      auto v = link.dst.value();
      // Strict improvement, or equal cost broken towards the smaller link id
      // for determinism.
      if (nd < result.dist[v] ||
          (nd == result.dist[v] && result.via[v].valid() &&
           lid < result.via[v])) {
        result.dist[v] = nd;
        result.via[v] = lid;
        frontier.push({nd, v});
      }
    }
  }
  return result;
}

Path extract_path(const Topology& topo, const DijkstraResult& result,
                  NodeId src, NodeId dst) {
  Path reversed;
  NodeId at = dst;
  while (at != src) {
    LinkId lid = result.via[at.value()];
    EONA_ASSERT(lid.valid());
    reversed.push_back(lid);
    at = topo.link(lid).src;
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

}  // namespace

const Path& Routing::cached_shortest(NodeId src, NodeId dst) const {
  std::uint64_t epoch = link_state_ != nullptr
                            ? link_state_->topology_epoch()
                            : 0;
  if (epoch != cache_epoch_) {
    cache_.clear();
    cache_epoch_ = epoch;
  }
  std::uint64_t key = (static_cast<std::uint64_t>(src.value()) << 32) |
                      static_cast<std::uint64_t>(dst.value());
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  DijkstraResult result = dijkstra(*topo_, src, link_state_);
  if (!result.reached(dst))
    throw NotFoundError("no route " + topo_->node(src).name + " -> " +
                        topo_->node(dst).name);
  return cache_.emplace(key, extract_path(*topo_, result, src, dst))
      .first->second;
}

const Path& Routing::shortest_path(NodeId src, NodeId dst) const {
  EONA_EXPECTS(topo_->contains(src) && topo_->contains(dst));
  static const Path kEmpty;
  if (src == dst) return kEmpty;
  return cached_shortest(src, dst);
}

bool Routing::has_route(NodeId src, NodeId dst) const {
  EONA_EXPECTS(topo_->contains(src) && topo_->contains(dst));
  if (src == dst) return true;
  return dijkstra(*topo_, src, link_state_).reached(dst);
}

void Routing::path_via(NodeId src, NodeId via, NodeId dst, Path& out) const {
  // Cached paths are nodes of an unordered_map, so the first reference
  // survives the second lookup's insertion.
  const Path& first = shortest_path(src, via);
  const Path& second = shortest_path(via, dst);
  out.insert(out.end(), first.begin(), first.end());
  out.insert(out.end(), second.begin(), second.end());
}

void Routing::path_via_link(NodeId src, LinkId via, NodeId dst,
                            Path& out) const {
  EONA_EXPECTS(topo_->contains(via));
  const Link& link = topo_->link(via);
  const Path& head = shortest_path(src, link.src);
  const Path& tail = shortest_path(link.dst, dst);
  out.insert(out.end(), head.begin(), head.end());
  out.push_back(via);
  out.insert(out.end(), tail.begin(), tail.end());
}

}  // namespace eona::net
