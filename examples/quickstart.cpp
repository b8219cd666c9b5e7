// Quickstart: the smallest complete EONA world.
//
// Builds a two-CDN delivery chain over an access ISP, runs a handful of
// adaptive video sessions in baseline and EONA modes, and shows the two
// EONA interfaces in action -- including what actually crosses the wire.
//
//   $ ./quickstart
#include <cstdio>

#include "app/content_catalog.hpp"
#include "app/session_pool.hpp"
#include "app/video_player.hpp"
#include "control/appp.hpp"
#include "control/infp.hpp"
#include "eona/wire.hpp"
#include "net/peering.hpp"
#include "net/transfer.hpp"
#include "scenarios/common.hpp"

using namespace eona;

int main() {
  // --- 1. a world: clients behind an access ISP, two CDNs ------------------
  sim::Scheduler sched;
  net::Topology topo;
  NodeId client = topo.add_node(net::NodeKind::kClientPop, "clients");
  NodeId edge = topo.add_node(net::NodeKind::kRouter, "isp-edge");
  NodeId srv1 = topo.add_node(net::NodeKind::kCdnServer, "cdn1-srv");
  NodeId srv2 = topo.add_node(net::NodeKind::kCdnServer, "cdn2-srv");
  NodeId origin = topo.add_node(net::NodeKind::kOrigin, "origin");

  LinkId access = topo.add_link(edge, client, mbps(50), milliseconds(5));
  LinkId peer1 = topo.add_link(srv1, edge, mbps(200), milliseconds(8));
  LinkId peer2 = topo.add_link(srv2, edge, mbps(200), milliseconds(8));
  topo.add_link(origin, srv1, mbps(100), milliseconds(20));
  topo.add_link(origin, srv2, mbps(100), milliseconds(20));

  net::Network network(topo);
  net::TransferManager transfers(sched, network);
  net::Routing routing(topo);
  net::PeeringBook peering(topo);
  IspId isp(0);

  // --- 2. the delivery ecosystem --------------------------------------------
  app::ContentCatalog catalog = app::ContentCatalog::videos(8, 60.0);
  app::Cdn cdn1(CdnId(0), "cdn-1", origin);
  app::Cdn cdn2(CdnId(1), "cdn-2", origin);
  ServerId s1 = cdn1.add_server(srv1, peer1, 8);
  cdn2.add_server(srv2, peer2, 8);
  peering.add(isp, cdn1.id(), peer1, "cdn1@edge");
  peering.add(isp, cdn2.id(), peer2, "cdn2@edge");
  cdn1.warm_cache(s1, {ContentId(0), ContentId(1)});
  app::CdnDirectory directory;
  directory.add(&cdn1);
  directory.add(&cdn2);

  // --- 3. control planes and the brokered EONA exchange ---------------------
  core::ProviderRegistry registry;
  ProviderId appp_id =
      registry.register_provider(core::ProviderKind::kAppP, "video-appp");
  ProviderId infp_id =
      registry.register_provider(core::ProviderKind::kInfP, "access-isp");

  core::Exchange exchange(registry);
  exchange.register_appp(appp_id);
  exchange.register_infp(infp_id);

  control::AppPController appp(sched, network, directory, appp_id);
  control::InfPController infp(sched, network, routing, peering, isp, infp_id,
                               {access});
  infp.attach_cdn(&cdn1);
  infp.attach_cdn(&cdn2);
  appp.bind_exchange(core::ExchangeEndpoint(&exchange, appp_id));
  infp.bind_exchange(core::ExchangeEndpoint(&exchange, infp_id));
  exchange.wire(appp_id, infp_id);  // broker mints both bearer tokens
  infp.subscribe_a2i(appp_id);
  appp.subscribe_i2a(infp_id);
  appp.set_eona_enabled(true);
  infp.set_eona_enabled(true);
  appp.start();
  infp.start();

  // --- 4. a few video sessions ----------------------------------------------
  app::SessionPool pool(sched, &network);
  for (int i = 0; i < 6; ++i) {
    SessionId session(static_cast<SessionId::rep_type>(i));
    telemetry::Dimensions dims;
    dims.isp = isp;
    ContentId content(static_cast<ContentId::rep_type>(i % 4));
    sched.schedule_at(5.0 * i, [&, session, dims, content] {
      pool.spawn_player(sched, transfers, network, routing, directory,
                        appp.brain(), &appp.collector(), app::PlayerConfig{},
                        session, dims, client, catalog.item(content),
                        qoe::EngagementModel{});
    });
  }

  sched.run_until(180.0);
  pool.abort_all();
  sched.run_until(181.0);

  // --- 5. results -------------------------------------------------------------
  scenarios::QoeSummary qoe = scenarios::QoeSummary::from(pool.summaries());
  std::printf("sessions finished : %zu\n", qoe.sessions);
  std::printf("mean buffering    : %.4f\n", qoe.mean_buffering);
  std::printf("mean bitrate      : %.2f Mbps\n", qoe.mean_bitrate / 1e6);
  std::printf("mean join time    : %.2f s\n", qoe.mean_join_time);
  std::printf("mean engagement   : %.3f\n", qoe.mean_engagement);
  std::printf("beacons collected : %llu\n",
              static_cast<unsigned long long>(
                  appp.collector().beacon_count()));

  // --- 6. what crossed the EONA interfaces -----------------------------------
  core::A2IReport a2i = appp.build_a2i_report();
  core::I2AReport i2a = infp.build_i2a_report();
  std::printf("\nA2I report: %zu QoE groups, %zu forecasts\n",
              a2i.groups.size(), a2i.forecasts.size());
  for (const auto& g : a2i.groups) {
    if (g.server.valid()) continue;
    std::printf("  isp=%u cdn=%u  buffering=%.4f bitrate=%.2fMbps n=%llu\n",
                g.isp.value(), g.cdn.value(), g.mean_buffering_ratio,
                g.mean_bitrate / 1e6,
                static_cast<unsigned long long>(g.sessions));
  }
  std::printf("I2A report: %zu peerings, %zu server hints, %zu signals\n",
              i2a.peerings.size(), i2a.server_hints.size(),
              i2a.congestion.size());

  core::WireBytes frame = core::encode(a2i);
  core::A2IReport round_trip = core::decode_a2i(frame);
  std::printf("wire round-trip   : %zu bytes, %s\n", frame.size(),
              round_trip == a2i ? "intact" : "CORRUPT");
  return 0;
}
