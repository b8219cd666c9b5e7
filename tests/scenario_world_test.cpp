// The World's video workload and run epilogue (World::add_video_sessions and
// World::run), which every video scenario shares:
//  * session ids from several calls form one sequence in arrival order;
//  * a call given two clients alternates ISP 0 and ISP 1 over its sessions;
//  * run() stops the arrivals at their end, aborts every live session,
//    and folds the scheduler's fired count into the run's counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "scenarios/world.hpp"

namespace eona {
namespace {

/// One access bottleneck, one warm CDN, one AppP on the exchange and two
/// session pools; `second_client` adds another client POP behind the edge.
struct WorkloadWorld {
  std::unique_ptr<sim::World> world;
  NodeId client;
  NodeId second_client;
  control::AppPController* appp = nullptr;
  app::SessionPool* pools[2] = {nullptr, nullptr};
};

WorkloadWorld build_world(std::uint64_t seed) {
  WorkloadWorld w;
  sim::World::Builder b(seed);
  b.add_isp_bottleneck(mbps(200));
  w.client = b.client();
  w.second_client = b.topology().add_node(net::NodeKind::kClientPop, "second");
  b.topology().add_link(b.edge(), w.second_client, mbps(200),
                        milliseconds(5));
  b.with_catalog(8, 30.0);
  sim::World::Builder::CdnSpec cdn;
  cdn.warm = true;
  b.add_cdn("cdn", cdn);
  b.build_network();
  b.add_exchange();
  w.appp = &b.add_appp("video-appp");
  w.pools[0] = &b.add_session_pool();
  w.pools[1] = &b.add_session_pool();
  w.world = b.build();
  return w;
}

/// Every summary of `pool`, ordered by session id.
std::vector<app::SessionSummary> by_session(const app::SessionPool& pool) {
  std::vector<app::SessionSummary> out = pool.summaries();
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.record.session < b.record.session;
  });
  return out;
}

TEST(WorldWorkload, SessionIdsFromTwoCallsFormOneSequence) {
  WorkloadWorld w = build_world(7);
  std::vector<SessionId> started;
  w.world->bus().subscribe<sim::SessionStartedEvent>(
      [&](const sim::SessionStartedEvent& e) { started.push_back(e.session); });
  for (app::SessionPool* pool : w.pools)
    w.world->add_video_sessions(*pool, w.appp->brain(), w.appp->collector(),
                                {}, {{0.0, 0.5}}, 60.0, {w.client});
  w.world->run(100.0, nullptr);

  // Ids are handed out in arrival order, 0, 1, 2, ... across both calls.
  ASSERT_GT(started.size(), 10u);
  for (std::size_t i = 0; i < started.size(); ++i)
    EXPECT_EQ(started[i], SessionId(i)) << "arrival " << i;
  // Both calls drew from that one sequence: neither pool's ids are a block.
  const auto first = by_session(*w.pools[0]);
  const auto second = by_session(*w.pools[1]);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(first.size() + second.size(), started.size());
  EXPECT_LT(first.front().record.session, second.back().record.session);
  EXPECT_LT(second.front().record.session, first.back().record.session);
}

TEST(WorldWorkload, TwoClientsAlternateIspsOverOneCallsSessions) {
  WorkloadWorld w = build_world(11);
  // A one-client call first, so the two-client call's sessions do not start
  // at id 0: the rotation counts the call's own sessions.
  w.world->add_video_sessions(*w.pools[0], w.appp->brain(),
                              w.appp->collector(), {}, {{0.0, 0.3}}, 60.0,
                              {w.client});
  w.world->add_video_sessions(*w.pools[1], w.appp->brain(),
                              w.appp->collector(), {}, {{0.0, 0.3}}, 60.0,
                              {w.client, w.second_client});
  w.world->run(100.0, nullptr);

  for (const app::SessionSummary& s : w.pools[0]->summaries())
    EXPECT_EQ(s.record.dims.isp, IspId(0));
  const auto rotated = by_session(*w.pools[1]);
  ASSERT_GT(rotated.size(), 4u);
  for (std::size_t n = 0; n < rotated.size(); ++n)
    EXPECT_EQ(rotated[n].record.dims.isp,
              IspId(static_cast<IspId::rep_type>(n % 2)))
        << "session " << n << " of the two-client call";
}

TEST(WorldWorkload, RunStopsArrivalsAbortsSessionsAndFoldsEvents) {
  WorkloadWorld w = build_world(3);
  TimePoint last_start = -1.0;
  w.world->bus().subscribe<sim::SessionStartedEvent>(
      [&](const sim::SessionStartedEvent& e) { last_start = e.t; });
  const TimePoint end = 40.0;
  const app::PoissonArrivals& arrivals = w.world->add_video_sessions(
      *w.pools[0], w.appp->brain(), w.appp->collector(), {}, {{0.0, 1.0}},
      end, {w.client});
  scenarios::RunPerf perf;
  // Videos last 30 s, so sessions are still playing when the run ends.
  w.world->run(50.0, &perf);

  EXPECT_GT(arrivals.arrivals(), 10u);
  EXPECT_GE(last_start, 0.0);
  EXPECT_LT(last_start, end) << "a session started after its arrival end";
  for (app::SessionPool* pool : w.pools)
    EXPECT_EQ(pool->active_count(), 0u) << "a session outlived run()";
  EXPECT_EQ(w.pools[0]->summaries().size(), arrivals.arrivals());
  EXPECT_EQ(perf.events, w.world->sched().events_fired());
  EXPECT_GT(perf.events, 0u);
  EXPECT_DOUBLE_EQ(w.world->sched().now(), 51.0);
}

}  // namespace
}  // namespace eona
