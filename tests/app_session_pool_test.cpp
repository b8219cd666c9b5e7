// Tests for the SessionPool's struct-of-arrays storage: slab-arena spawn
// with slot and storage recycling at scale, deferred erase coalescing, and
// the batched abort_all sweep.
#include "app/session_pool.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "net/transfer.hpp"

namespace eona::app {
namespace {

/// Fixed-decision brain: always the one warmed server, lowest rendition.
class FixedBrain : public PlayerBrain {
 public:
  Endpoint choose_endpoint(const PlayerView&) override {
    return Endpoint{CdnId(0), ServerId(0)};
  }
  bool should_switch_endpoint(const PlayerView&) override { return false; }
  std::size_t choose_bitrate(const PlayerView&) override { return 0; }
};

class SessionPoolTest : public ::testing::Test {
 protected:
  SessionPoolTest() : cdn(CdnId(0), "cdn", NodeId{}) {
    client = topo.add_node(net::NodeKind::kClientPop, "client");
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    srv = topo.add_node(net::NodeKind::kCdnServer, "srv");
    origin = topo.add_node(net::NodeKind::kOrigin, "origin");
    access = topo.add_link(edge, client, gbps(10), milliseconds(1));
    egress = topo.add_link(srv, edge, gbps(10), milliseconds(1));
    topo.add_link(origin, srv, mbps(10), milliseconds(1));

    cdn = Cdn(CdnId(0), "cdn", origin);
    cdn.warm_cache(cdn.add_server(srv, egress, 8), {ContentId(0)});
    directory.add(&cdn);

    network.emplace(topo);
    transfers.emplace(sched, *network);
    routing.emplace(topo);

    content.id = ContentId(0);
    content.kind = ContentKind::kVideo;
    content.video_duration = 8.0;

    config.ladder = {mbps(1)};
    config.chunk_duration = 4.0;
    config.startup_target = 4.0;
    config.resume_target = 4.0;
    config.max_buffer = 24.0;
    config.beacon_period = 0.0;  // no beacons: keep the event count small
  }

  SessionId spawn(SessionPool& pool, SessionId::rep_type id) {
    telemetry::Dimensions dims;
    dims.isp = IspId(0);
    return pool.spawn_player(sched, *transfers, *network, *routing, directory,
                             brain, nullptr, config, SessionId(id), dims,
                             client, content, qoe::EngagementModel{});
  }

  net::Topology topo;
  NodeId client, edge, srv, origin;
  LinkId access, egress;
  Cdn cdn;
  CdnDirectory directory;
  sim::Scheduler sched;
  std::optional<net::Network> network;
  std::optional<net::TransferManager> transfers;
  std::optional<net::Routing> routing;
  ContentItem content;
  PlayerConfig config;
  FixedBrain brain;
};

TEST_F(SessionPoolTest, LargeChurnRecyclesSlotsAndStaysBounded) {
  // Many waves of short sessions: slot table and slabs must stay sized for
  // the peak concurrency, not the total session count.
  SessionPool pool(sched, &*network);
  pool.reserve(64);
  constexpr int kWaves = 40;
  constexpr int kPerWave = 25;  // 1000 sessions total
  SessionId::rep_type next = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kPerWave; ++i) spawn(pool, next++);
    EXPECT_EQ(pool.active_count(), static_cast<std::size_t>(kPerWave));
    sched.run_all();  // wave drains completely before the next begins
    EXPECT_EQ(pool.active_count(), 0u);
  }
  EXPECT_EQ(pool.summaries().size(),
            static_cast<std::size_t>(kWaves * kPerWave));
  // Every session finished cleanly and was collected exactly once.
  std::set<SessionId::rep_type> seen;
  for (const auto& s : pool.summaries()) seen.insert(s.record.session.value());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kWaves * kPerWave));
}

TEST_F(SessionPoolTest, AbortAllCoalescesIntoOneEraseSweep) {
  // Starve the access link so all 50 sessions are mid-transfer at abort
  // time: each cancellation removes a live flow from the network.
  network->set_link_capacity(access, mbps(25));
  SessionPool pool(sched, &*network);
  for (SessionId::rep_type i = 0; i < 50; ++i) spawn(pool, i);
  sched.run_until(1.0);
  EXPECT_EQ(pool.active_count(), 50u);
  EXPECT_EQ(transfers->active_count(), 50u);

  std::uint64_t recomputes_before = network->recompute_count();
  std::uint64_t fired_before = sched.events_fired();
  pool.abort_all();
  // Batched: the burst of transfer cancellations lands as ONE recompute.
  EXPECT_EQ(network->recompute_count(), recomputes_before + 1);
  sched.run_until(sched.now() + 0.5);
  // Deferred teardown is coalesced: one zero-delay sweep, not one event per
  // session (+1 covers stray completion events already queued).
  EXPECT_LE(sched.events_fired() - fired_before, 2u);
  EXPECT_EQ(pool.active_count(), 0u);
  EXPECT_EQ(pool.summaries().size(), 50u);
}

TEST_F(SessionPoolTest, AbortAllSkipsAlreadyFinishedSessions) {
  SessionPool pool(sched, &*network);
  spawn(pool, 0);
  sched.run_all();  // session 0 finishes naturally
  EXPECT_EQ(pool.summaries().size(), 1u);
  spawn(pool, 1);
  sched.run_until(sched.now() + 1.0);
  pool.abort_all();  // must not double-finish session 0
  sched.run_all();
  EXPECT_EQ(pool.summaries().size(), 2u);
  EXPECT_EQ(pool.active_count(), 0u);
}

TEST_F(SessionPoolTest, PlayerLookupAndDestructorCleanup) {
  auto pool = std::make_unique<SessionPool>(sched, &*network);
  spawn(*pool, 7);
  EXPECT_EQ(pool->player(SessionId(7)).session(), SessionId(7));
  EXPECT_THROW((void)pool->player(SessionId(99)), NotFoundError);
  // Destroying the pool mid-flight must tear down live players (arena
  // storage) without firing their deferred erase sweep afterwards.
  pool.reset();
  sched.run_all();
}

}  // namespace
}  // namespace eona::app
