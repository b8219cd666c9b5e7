// CDN model: server clusters with egress capacity (their access link into
// the topology), per-server LRU content caches, and an origin for misses.
//
// A cache hit serves content straight from the server; a miss pulls the
// content through the origin (the fluid flow traverses origin -> server ->
// client), so misses are naturally slower and load the origin links -- the
// cache-locality effect behind the paper's "coarse control" scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "net/network.hpp"
#include "net/peering.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "app/lru_cache.hpp"
#include "sim/rng.hpp"

namespace eona::app {

/// One server cluster inside a CDN.
struct CdnServer {
  ServerId id;
  NodeId node;
  LinkId egress;  ///< access link server -> edge; its capacity is the
                       ///< server's serving capacity
  bool online = true;
  LruCache<ContentId> cache;

  CdnServer(ServerId id_, NodeId node_, LinkId egress_,
            std::size_t cache_capacity)
      : id(id_), node(node_), egress(egress_), cache(cache_capacity) {}
};

/// How a chunk/page fetch will be carried by the network. `path` is the
/// planning Cdn's buffer: valid until that Cdn plans again.
struct FetchPlan {
  const net::Path& path;
  bool cache_hit = false;
  ServerId server;
};

/// A CDN: servers + origin + cache bookkeeping. Server selection policy is
/// parameterised (least-loaded is the house default); the AppP's brain may
/// override the choice entirely when EONA-I2A supplies server hints.
class Cdn {
 public:
  Cdn(CdnId id, std::string name, NodeId origin_node)
      : id_(id), name_(std::move(name)), origin_(origin_node) {}

  [[nodiscard]] CdnId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeId origin_node() const { return origin_; }

  /// When set, delivery paths into an ISP honour the ISP's currently
  /// selected peering point for this CDN (the InfP's routing knob).
  void set_peering_book(const net::PeeringBook* book) { book_ = book; }

  ServerId add_server(NodeId node, LinkId egress,
                      std::size_t cache_capacity) {
    ServerId sid(static_cast<ServerId::rep_type>(servers_.size()));
    servers_.emplace_back(sid, node, egress, cache_capacity);
    return sid;
  }

  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }

  [[nodiscard]] const CdnServer& server(ServerId id) const {
    if (!id.valid() || id.value() >= servers_.size())
      throw NotFoundError("server " + std::to_string(id.value()) + " in cdn " +
                          name_);
    return servers_[id.value()];
  }

  /// Take a server in or out of rotation (energy management knob). Offline
  /// servers receive no new selections; existing sessions keep flowing until
  /// the application moves them.
  void set_online(ServerId id, bool online) { mutable_server(id).online = online; }

  [[nodiscard]] std::size_t online_count() const {
    std::size_t n = 0;
    for (const auto& s : servers_)
      if (s.online) ++n;
    return n;
  }

  /// Current load of a server: concurrent flows on its egress link.
  [[nodiscard]] int server_load(ServerId id, const net::Network& net) const {
    return net.link_flow_count(server(id).egress);
  }

  /// Least-loaded online server (ties broken by lowest id, deterministic).
  /// Throws NotFoundError when every server is offline.
  [[nodiscard]] ServerId pick_server(const net::Network& net) const {
    ServerId best;
    int best_load = 0;
    for (const auto& s : servers_) {
      if (!s.online) continue;
      int load = net.link_flow_count(s.egress);
      if (!best.valid() || load < best_load) {
        best = s.id;
        best_load = load;
      }
    }
    if (!best.valid()) throw NotFoundError("no online server in cdn " + name_);
    return best;
  }

  /// Plan fetching `content` from `server` to `client` in `client_isp`. On
  /// a miss the path detours through the origin and the content is inserted
  /// into the server's cache. When a peering book is attached and the (ISP,
  /// CDN) pair has peering points, the path into the ISP crosses the ISP's
  /// *selected* peering link. The path is written into a buffer this Cdn
  /// owns, so a steady-state plan allocates nothing.
  FetchPlan plan_fetch(ContentId content, ServerId server_id, NodeId client,
                       IspId client_isp, const net::Routing& routing) {
    CdnServer& srv = mutable_server(server_id);
    const bool cache_hit = srv.cache.touch(content);
    path_.clear();
    delivery_path(srv.node, client, client_isp, routing, path_);
    if (cache_hit) {
      ++hits_;
    } else {
      ++misses_;
      // The tail is looked up first, so a missing tail route is the error
      // reported even when the origin detour is missing too.
      const net::Path& detour = routing.shortest_path(origin_, srv.node);
      path_.insert(path_.begin(), detour.begin(), detour.end());
      srv.cache.insert(content);
    }
    return FetchPlan{path_, cache_hit, server_id};
  }

  /// Append the path server -> client to `out`, honouring the ISP's peering
  /// selection if known.
  void delivery_path(NodeId server_node, NodeId client, IspId client_isp,
                     const net::Routing& routing, net::Path& out) const {
    if (book_ && client_isp.valid() && book_->has_peering(client_isp, id_)) {
      PeeringId selected = book_->selected(client_isp, id_);
      routing.path_via_link(server_node, book_->point(selected).ingress_link,
                            client, out);
      return;
    }
    const net::Path& path = routing.shortest_path(server_node, client);
    out.insert(out.end(), path.begin(), path.end());
  }

  /// Pre-populate a server's cache (warm start for scenarios).
  void warm_cache(ServerId server_id, const std::vector<ContentId>& contents) {
    CdnServer& srv = mutable_server(server_id);
    for (ContentId c : contents) srv.cache.insert(c);
  }

  /// Drop a server's cache (it was powered off; RAM cache is gone).
  void clear_cache(ServerId server_id) {
    mutable_server(server_id).cache.clear();
  }

  [[nodiscard]] std::uint64_t cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return misses_; }
  [[nodiscard]] double hit_ratio() const {
    std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

  [[nodiscard]] const std::vector<CdnServer>& servers() const {
    return servers_;
  }

 private:
  CdnServer& mutable_server(ServerId id) {
    if (!id.valid() || id.value() >= servers_.size())
      throw NotFoundError("server " + std::to_string(id.value()) + " in cdn " +
                          name_);
    return servers_[id.value()];
  }

  CdnId id_;
  std::string name_;
  NodeId origin_;
  const net::PeeringBook* book_ = nullptr;
  std::vector<CdnServer> servers_;
  net::Path path_;  ///< the last plan's path (FetchPlan::path)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Lookup of all CDNs an AppP can use, keyed by CdnId.
class CdnDirectory {
 public:
  void add(Cdn* cdn) {
    EONA_EXPECTS(cdn != nullptr);
    cdns_.push_back(cdn);
  }

  [[nodiscard]] Cdn& at(CdnId id) const {
    for (Cdn* cdn : cdns_)
      if (cdn->id() == id) return *cdn;
    throw NotFoundError("cdn " + std::to_string(id.value()));
  }

  [[nodiscard]] const std::vector<Cdn*>& all() const { return cdns_; }
  [[nodiscard]] std::size_t size() const { return cdns_.size(); }

 private:
  std::vector<Cdn*> cdns_;
};

}  // namespace eona::app
