#include "scenarios/worlds.hpp"

#include <string>

#include "app/content_catalog.hpp"

namespace eona::scenarios {

Fig5World build_fig5_world(sim::World::Builder& b, BitsPerSecond capacity_b,
                           BitsPerSecond capacity_cx,
                           BitsPerSecond capacity_cy,
                           Duration video_duration) {
  Fig5World w;
  b.add_isp_bottleneck(gbps(1));
  net::Topology& topo = b.topology();
  w.client = b.client();
  NodeId edge = b.edge();
  NodeId srv_x = topo.add_node(net::NodeKind::kCdnServer, "cdnX-srv");
  NodeId srv_y = topo.add_node(net::NodeKind::kCdnServer, "cdnY-srv");
  NodeId origin_x = topo.add_node(net::NodeKind::kOrigin, "cdnX-origin");
  NodeId origin_y = topo.add_node(net::NodeKind::kOrigin, "cdnY-origin");

  // Two parallel interconnects for X: local B (cheap) and the IXP C.
  LinkId x_at_b =
      topo.add_link(srv_x, edge, capacity_b, milliseconds(3), "X@B");
  LinkId x_at_c =
      topo.add_link(srv_x, edge, capacity_cx, milliseconds(12), "X@C");
  LinkId y_at_c =
      topo.add_link(srv_y, edge, capacity_cy, milliseconds(12), "Y@C");
  topo.add_link(origin_x, srv_x, mbps(500), milliseconds(15));
  topo.add_link(origin_y, srv_y, mbps(500), milliseconds(15));

  b.build_network(w.isp);
  net::PeeringBook& peering = b.world().peering();

  b.with_catalog(24, video_duration, 0.8);
  app::Cdn& cdn_x = b.add_cdn_at("cdn-X", origin_x);
  app::Cdn& cdn_y = b.add_cdn_at("cdn-Y", origin_y);
  ServerId sx = cdn_x.add_server(srv_x, x_at_b, 32);  // egress tracked at B
  ServerId sy = cdn_y.add_server(srv_y, y_at_c, 32);
  // Registration order defines the ISP's preference: B first (cheap).
  peering.add(w.isp, cdn_x.id(), x_at_b, "X@B");
  w.peer_xc = peering.add(w.isp, cdn_x.id(), x_at_c, "X@C");
  peering.add(w.isp, cdn_y.id(), y_at_c, "Y@C");
  cdn_x.set_peering_book(&peering);
  cdn_y.set_peering_book(&peering);
  std::vector<ContentId> all = b.world().catalog().ids();
  cdn_x.warm_cache(sx, all);
  cdn_y.warm_cache(sy, all);
  w.cdn_x = &cdn_x;
  return w;
}

FederationPlane build_federation_plane(sim::World::Builder& b,
                                       BitsPerSecond access_capacity,
                                       BitsPerSecond pool,
                                       Duration video_duration,
                                       double exaggeration,
                                       std::span<const double> quotas,
                                       bool robust_fetch,
                                       Duration freshness_deadline) {
  constexpr std::size_t kIsps = FederationPlane::kIsps;
  constexpr std::size_t kTenants = FederationPlane::kTenants;
  EONA_EXPECTS(quotas.empty() || quotas.size() == kTenants);
  FederationPlane plane;

  // --- two access ISPs, three single-CDN tenants -----------------------------
  // Each CDN peers with both ISPs (one ingress link per (ISP, CDN) pair), so
  // every ISP's egress-sharing knob divides its pool across all three. With a
  // single peering point per pair there is nothing for traffic engineering to
  // re-select: capacity shares are the only contended resource.
  net::Topology& topo = b.topology();
  std::array<NodeId, kIsps> edges{};
  std::array<LinkId, kIsps> access{};
  for (std::size_t k = 0; k < kIsps; ++k) {
    std::string isp_name = "isp" + std::to_string(k);
    plane.clients[k] =
        topo.add_node(net::NodeKind::kClientPop, isp_name + "-clients");
    edges[k] = topo.add_node(net::NodeKind::kRouter, isp_name + "-edge");
    access[k] = topo.add_link(edges[k], plane.clients[k], access_capacity,
                              milliseconds(5), isp_name + "-access");
  }
  std::array<NodeId, kTenants> srv{};
  std::array<NodeId, kTenants> origin{};
  // ingress[k][i]: CDN i's peering link into ISP k. Every link starts at an
  // equal third of the pool; the InfPs' sharing ticks move it from there.
  std::array<std::array<LinkId, kTenants>, kIsps> ingress{};
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::string name = "cdn" + std::to_string(i);
    srv[i] = topo.add_node(net::NodeKind::kCdnServer, name + "-srv");
    origin[i] = topo.add_node(net::NodeKind::kOrigin, name + "-origin");
    topo.add_link(origin[i], srv[i], mbps(500), milliseconds(15));
    for (std::size_t k = 0; k < kIsps; ++k) {
      ingress[k][i] = topo.add_link(
          srv[i], edges[k], pool / static_cast<double>(kTenants),
          milliseconds(8), name + "@isp" + std::to_string(k));
    }
  }

  b.build_network();
  net::PeeringBook& peering = b.world().peering();
  b.with_catalog(24, video_duration, 0.8);
  for (std::size_t i = 0; i < kTenants; ++i) {
    app::Cdn& cdn = b.add_cdn_at("cdn" + std::to_string(i), origin[i]);
    ServerId sid = cdn.add_server(srv[i], ingress[0][i], 48);
    cdn.warm_cache(sid, b.world().catalog().ids());
    cdn.set_peering_book(&peering);
    plane.cdns[i] = &cdn;
  }
  for (std::size_t k = 0; k < kIsps; ++k)
    for (std::size_t i = 0; i < kTenants; ++i)
      peering.add(IspId(static_cast<IspId::rep_type>(k)), plane.cdns[i]->id(),
                  ingress[k][i],
                  "cdn" + std::to_string(i) + "@isp" + std::to_string(k));

  // --- three AppP tenants (tenant 0 lies), two InfPs -------------------------
  control::AppPConfig& appp_cfg = plane.appp_cfg;
  appp_cfg.control_period = 10.0;
  appp_cfg.qoe_window = 60.0;
  appp_cfg.intended_bitrate = kVideoLadder.back();
  // Pinned tenants: no trial-and-error CDN switching, no primary-CDN
  // steering.
  appp_cfg.stalls_before_switch = 1'000'000;
  appp_cfg.poor_throughput_rung = 0;
  appp_cfg.bad_qoe_buffering = 2.0;
  appp_cfg.robust_fetch = robust_fetch;
  appp_cfg.i2a_retry.freshness_deadline = freshness_deadline;

  b.add_exchange();
  core::Exchange& exchange = b.world().exchange();
  for (std::size_t i = 0; i < kTenants; ++i) {
    control::AppPConfig cfg = appp_cfg;
    if (i == 0) cfg.forecast_exaggeration = exaggeration;
    plane.appps[i] = &b.add_appp("appp" + std::to_string(i), cfg);
  }
  if (!quotas.empty()) {
    // Quota shares refer to the per-ISP pool: claims above share * pool
    // are clamped at publish, before any InfP sees them.
    exchange.set_egress_reference(pool);
    for (std::size_t i = 0; i < kTenants; ++i)
      exchange.set_quota(plane.appps[i]->id(), core::TenantQuota{quotas[i]});
  }

  control::InfPConfig infp_cfg;
  infp_cfg.control_period = 30.0;
  infp_cfg.egress_share.enabled = true;
  infp_cfg.egress_share.pool = pool;
  infp_cfg.robust_fetch = robust_fetch;
  infp_cfg.a2i_retry.freshness_deadline = freshness_deadline;
  for (std::size_t k = 0; k < kIsps; ++k)
    plane.infps[k] = &b.add_infp("infp" + std::to_string(k),
                                 IspId(static_cast<IspId::rep_type>(k)),
                                 {access[k]}, infp_cfg);

  // Full N x M wiring: every tenant pair crosses the exchange.
  for (std::size_t i = 0; i < kTenants; ++i)
    for (std::size_t k = 0; k < kIsps; ++k) b.wire_tenant(i, k);

  for (std::size_t i = 0; i < kTenants; ++i) {
    plane.appps[i]->set_primary_cdn(plane.cdns[i]->id(), "pinned");
    plane.appps[i]->start();
  }
  for (control::InfPController* infp : plane.infps) {
    infp->set_eona_enabled(true);
    infp->start();
  }
  return plane;
}

StarterWorld build_starter_world(sim::World::Builder& b, ControlMode mode,
                                 BitsPerSecond access_capacity,
                                 Duration video_duration) {
  StarterWorld w;
  b.add_isp_bottleneck(access_capacity);
  b.with_catalog(16, video_duration);
  sim::World::Builder::CdnSpec cdn_spec;
  cdn_spec.warm = true;
  b.add_cdn("cdn", cdn_spec);
  b.build_network(w.isp);

  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp");
  control::InfPController& infp =
      b.add_infp("access-isp", w.isp, {b.access_link()});
  b.wire_tenant();
  const bool eona = mode != ControlMode::kBaseline;
  appp.set_eona_enabled(eona);
  infp.set_eona_enabled(eona);
  appp.start();
  infp.start();
  control::OracleBrain& oracle = b.add_oracle();

  w.client = b.client();
  w.access = b.access_link();
  w.appp = &appp;
  w.brain = mode == ControlMode::kOracle
                ? static_cast<app::PlayerBrain*>(&oracle)
                : &appp.brain();
  w.pool = &b.add_session_pool();
  return w;
}

}  // namespace eona::scenarios
