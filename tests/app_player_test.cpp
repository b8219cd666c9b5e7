// End-to-end tests of the adaptive video player mechanics on a tiny network
// with scripted brains: startup, steady playback, stalls and recovery,
// beacons, switching, and abort.
#include "app/video_player.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "app/session_pool.hpp"
#include "net/transfer.hpp"

namespace eona::app {
namespace {

/// Brain with fixed decisions (and optional stall-triggered switching).
class ScriptedBrain : public PlayerBrain {
 public:
  Endpoint endpoint{CdnId(0), ServerId(0)};
  Endpoint switch_target{CdnId(0), ServerId(0)};
  std::size_t bitrate = 0;
  bool switch_on_stall = false;

  Endpoint choose_endpoint(const PlayerView& v) override {
    return v.stall_count > 0 && switch_on_stall ? switch_target : endpoint;
  }
  bool should_switch_endpoint(const PlayerView& v) override {
    return switch_on_stall && v.stalls_since_switch > 0;
  }
  std::size_t choose_bitrate(const PlayerView&) override { return bitrate; }
};

class PlayerTest : public ::testing::Test {
 protected:
  PlayerTest() : cdn(CdnId(0), "cdn", NodeId{}) {
    client = topo.add_node(net::NodeKind::kClientPop, "client");
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    srv = topo.add_node(net::NodeKind::kCdnServer, "srv");
    srv2 = topo.add_node(net::NodeKind::kCdnServer, "srv2");
    origin = topo.add_node(net::NodeKind::kOrigin, "origin");
    topo.add_link(edge, client, mbps(100), milliseconds(1));
    egress = topo.add_link(srv, edge, mbps(10), milliseconds(1));
    egress2 = topo.add_link(srv2, edge, mbps(10), milliseconds(1));
    topo.add_link(origin, srv, mbps(10), milliseconds(1));
    topo.add_link(origin, srv2, mbps(10), milliseconds(1));

    cdn = Cdn(CdnId(0), "cdn", origin);
    s0 = cdn.add_server(srv, egress, 8);
    s1 = cdn.add_server(srv2, egress2, 8);
    cdn.warm_cache(s0, {ContentId(0)});
    cdn.warm_cache(s1, {ContentId(0)});
    directory.add(&cdn);

    network.emplace(topo);
    transfers.emplace(sched, *network);
    routing.emplace(topo);

    content.id = ContentId(0);
    content.kind = ContentKind::kVideo;
    content.video_duration = 40.0;

    config.ladder = {mbps(1)};
    config.chunk_duration = 4.0;
    config.startup_target = 8.0;
    config.resume_target = 4.0;
    config.max_buffer = 24.0;
    config.beacon_period = 5.0;
    config.switch_delay = 0.2;
    config.min_switch_interval = 1.0;
  }

  std::unique_ptr<VideoPlayer> make_player(
      PlayerBrain& brain, VideoPlayer::DoneCallback done,
      telemetry::BeaconCollector* collector = nullptr) {
    telemetry::Dimensions dims;
    dims.isp = IspId(0);
    return std::make_unique<VideoPlayer>(
        sched, *transfers, *network, *routing, directory, brain, collector,
        config, SessionId(1), dims, client, content, qoe::EngagementModel{},
        std::move(done));
  }

  net::Topology topo;
  NodeId client, edge, srv, srv2, origin;
  LinkId egress, egress2;
  Cdn cdn;
  ServerId s0, s1;
  CdnDirectory directory;
  sim::Scheduler sched;
  std::optional<net::Network> network;
  std::optional<net::TransferManager> transfers;
  std::optional<net::Routing> routing;
  ContentItem content;
  PlayerConfig config;
};

TEST_F(PlayerTest, CleanPlaybackTimeline) {
  ScriptedBrain brain;
  std::optional<telemetry::SessionRecord> final_record;
  auto player = make_player(
      brain, [&](const telemetry::SessionRecord& r) { final_record = r; });
  player->start();
  sched.run_all();

  ASSERT_TRUE(final_record.has_value());
  EXPECT_TRUE(player->finished());
  const auto& m = final_record->metrics;
  // 1 Mbps rendition over a 10 Mbps path: each 4 Mb chunk takes 0.4 s;
  // join after 2 chunks (8 s buffered) at ~0.8 s.
  EXPECT_NEAR(m.join_time, 0.8, 0.05);
  EXPECT_DOUBLE_EQ(m.buffering_ratio, 0.0);
  EXPECT_NEAR(m.avg_bitrate, mbps(1), 1e3);
  EXPECT_EQ(player->stall_count(), 0u);
  // Session ends when the 40 s of content drain after the join.
  EXPECT_NEAR(final_record->timestamp, 40.8, 0.1);
  // All 10 chunks were delivered.
  EXPECT_NEAR(m.bytes_delivered, 10 * mbps(1) * 4.0, 1.0);
}

TEST_F(PlayerTest, BufferCapThrottlesFetching) {
  ScriptedBrain brain;
  auto player = make_player(brain, nullptr);
  player->start();
  sched.run_until(12.0);
  // Buffer must never exceed max_buffer.
  EXPECT_LE(player->buffer_level(), config.max_buffer + 1e-9);
  EXPECT_GT(player->buffer_level(), config.max_buffer - 2 * config.chunk_duration);
}

TEST_F(PlayerTest, CapacityLossCausesStallThenRecovery) {
  ScriptedBrain brain;
  std::optional<telemetry::SessionRecord> final_record;
  auto player = make_player(
      brain, [&](const telemetry::SessionRecord& r) { final_record = r; });
  player->start();
  // Starve the server mid-stream for 40 s: buffer (<=24 s) must run dry.
  sched.schedule_at(10.0, [&] { network->set_link_capacity(egress, kbps(1)); });
  sched.schedule_at(50.0, [&] { network->set_link_capacity(egress, mbps(10)); });
  sched.run_all();

  ASSERT_TRUE(final_record.has_value());
  EXPECT_GE(player->stall_count(), 1u);
  EXPECT_GT(final_record->metrics.buffering_ratio, 0.1);
  EXPECT_TRUE(player->finished());
}

TEST_F(PlayerTest, StallTriggersBrainDrivenServerSwitch) {
  ScriptedBrain brain;
  brain.switch_on_stall = true;
  brain.switch_target = Endpoint{CdnId(0), s1};
  std::optional<telemetry::SessionRecord> final_record;
  auto player = make_player(
      brain, [&](const telemetry::SessionRecord& r) { final_record = r; });
  player->start();
  // Kill server 0 permanently; the player must stall, switch to server 1,
  // and finish from there.
  sched.schedule_at(10.0, [&] { network->set_link_capacity(egress, 0.0); });
  sched.run_all();

  ASSERT_TRUE(final_record.has_value());
  EXPECT_TRUE(player->finished());
  EXPECT_EQ(player->endpoint().server, s1);
  EXPECT_EQ(player->server_switches(), 1u);
  EXPECT_EQ(player->cdn_switches(), 0u);
}

TEST_F(PlayerTest, BeaconsCarryDeltaTraffic) {
  ScriptedBrain brain;
  telemetry::BeaconCollector collector;
  double beaconed_bits = 0.0;
  collector.add_sink([&](const telemetry::SessionRecord& r) {
    beaconed_bits += r.metrics.bytes_delivered;
  });
  auto player = make_player(brain, nullptr, &collector);
  player->start();
  sched.run_all();
  // Sum of beacon deltas == total delivered volume (10 chunks x 4 Mb).
  EXPECT_NEAR(beaconed_bits, 10 * mbps(1) * 4.0, 1.0);
  EXPECT_GE(collector.beacon_count(), 5u);
}

TEST_F(PlayerTest, AbortEmitsFinalRecordAndCleansUp) {
  ScriptedBrain brain;
  std::optional<telemetry::SessionRecord> final_record;
  auto player = make_player(
      brain, [&](const telemetry::SessionRecord& r) { final_record = r; });
  player->start();
  sched.run_until(6.0);
  player->abort();
  EXPECT_TRUE(player->finished());
  ASSERT_TRUE(final_record.has_value());
  EXPECT_EQ(network->flow_count(), 0u);
  sched.run_all();  // nothing further may fire
  EXPECT_TRUE(player->finished());
}

TEST_F(PlayerTest, ThroughputEstimateConverges) {
  ScriptedBrain brain;
  auto player = make_player(brain, nullptr);
  player->start();
  sched.run_until(10.0);
  EXPECT_NEAR(player->throughput_estimate(), mbps(10), mbps(1));
}

TEST_F(PlayerTest, SessionPoolTracksLifecycle) {
  ScriptedBrain brain;
  SessionPool pool(sched);
  telemetry::Dimensions dims;
  dims.isp = IspId(0);
  SessionId id = pool.spawn_player(sched, *transfers, *network, *routing,
                                   directory, brain, nullptr, config,
                                   SessionId(42), dims, client, content,
                                   qoe::EngagementModel{});
  EXPECT_EQ(id, SessionId(42));
  EXPECT_EQ(pool.active_count(), 1u);
  EXPECT_TRUE(pool.contains(id));
  sched.run_all();
  EXPECT_EQ(pool.active_count(), 0u);
  ASSERT_EQ(pool.summaries().size(), 1u);
  EXPECT_EQ(pool.summaries()[0].record.session, SessionId(42));
  EXPECT_EQ(pool.summaries()[0].stalls, 0u);
}

TEST_F(PlayerTest, ShortVideoJoinsEvenBelowStartupTarget) {
  content.video_duration = 4.0;  // a single chunk < startup target
  ScriptedBrain brain;
  std::optional<telemetry::SessionRecord> final_record;
  auto player = make_player(
      brain, [&](const telemetry::SessionRecord& r) { final_record = r; });
  player->start();
  sched.run_all();
  ASSERT_TRUE(final_record.has_value());
  EXPECT_TRUE(player->finished());
  EXPECT_NEAR(final_record->timestamp, 0.4 + 4.0, 0.1);
}

}  // namespace
}  // namespace eona::app
