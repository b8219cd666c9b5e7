// Tests for volume transfers over the fluid network: completion timing is
// analytically exact, including across rate changes, cancellation, and
// callback-driven chaining.
#include "net/transfer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

namespace eona::net {
namespace {

class TransferTest : public ::testing::Test {
 protected:
  TransferTest() {
    a = topo.add_node(NodeKind::kRouter, "a");
    b = topo.add_node(NodeKind::kRouter, "b");
    ab = topo.add_link(a, b, mbps(10), milliseconds(1));
  }
  Topology topo;
  NodeId a, b;
  LinkId ab;
};

TEST_F(TransferTest, SingleTransferCompletesAtVolumeOverRate) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  TimePoint done_at = -1.0;
  transfers.start({ab}, megabits(20),
                  [&](TransferId) { done_at = sched.now(); });
  sched.run_all();
  // 20 Mb at 10 Mbps = 2 s.
  EXPECT_NEAR(done_at, 2.0, 1e-9);
  EXPECT_EQ(transfers.active_count(), 0u);
  EXPECT_EQ(net.flow_count(), 0u);
}

TEST_F(TransferTest, TwoConcurrentTransfersShareFairly) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  std::vector<TimePoint> done;
  transfers.start({ab}, megabits(10),
                  [&](TransferId) { done.push_back(sched.now()); });
  transfers.start({ab}, megabits(10),
                  [&](TransferId) { done.push_back(sched.now()); });
  sched.run_all();
  // Both at 5 Mbps until both finish at t=2 s.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST_F(TransferTest, ProgressIsBankedAcrossRateChanges) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  TimePoint done_at = -1.0;
  // Transfer of 10 Mb. Alone: 10 Mbps. At t=0.5 a second transfer starts,
  // halving the rate.
  transfers.start({ab}, megabits(10),
                  [&](TransferId) { done_at = sched.now(); });
  sched.schedule_at(0.5, [&] {
    transfers.start({ab}, megabits(100), nullptr);
  });
  sched.run_all();
  // 5 Mb delivered by t=0.5; remaining 5 Mb at 5 Mbps = 1 s more.
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST_F(TransferTest, DemandCapLimitsRate) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  TimePoint done_at = -1.0;
  transfers.start({ab}, megabits(4),
                  [&](TransferId) { done_at = sched.now(); },
                  /*demand=*/mbps(2));
  sched.run_all();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST_F(TransferTest, StatusReflectsLiveProgress) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  TransferId id = transfers.start({ab}, megabits(10), nullptr);
  sched.run_until(0.5);
  TransferStatus status = transfers.status(id);
  EXPECT_NEAR(status.remaining, megabits(5), 1e3);
  EXPECT_NEAR(status.current_rate, mbps(10), 1.0);
  EXPECT_DOUBLE_EQ(status.total, megabits(10));
  EXPECT_DOUBLE_EQ(status.started_at, 0.0);
}

TEST_F(TransferTest, CancelStopsCompletionAndFreesTheFlow) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  bool fired = false;
  TransferId id = transfers.start({ab}, megabits(10),
                                  [&](TransferId) { fired = true; });
  sched.run_until(0.2);
  transfers.cancel(id);
  EXPECT_FALSE(transfers.active(id));
  EXPECT_EQ(net.flow_count(), 0u);
  sched.run_all();
  EXPECT_FALSE(fired);
  transfers.cancel(id);  // idempotent
}

TEST_F(TransferTest, StatusOfUnknownTransferThrows) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  EXPECT_THROW((void)transfers.status(TransferId(7)), NotFoundError);
  EXPECT_THROW((void)transfers.flow(TransferId(7)), NotFoundError);
}

TEST_F(TransferTest, CompletionCallbackMayStartNewTransfers) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  std::vector<TimePoint> completions;
  std::function<void(int)> chain = [&](int remaining) {
    transfers.start({ab}, megabits(10), [&, remaining](TransferId) {
      completions.push_back(sched.now());
      if (remaining > 1) chain(remaining - 1);
    });
  };
  chain(3);
  sched.run_all();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_NEAR(completions[0], 1.0, 1e-9);
  EXPECT_NEAR(completions[1], 2.0, 1e-9);
  EXPECT_NEAR(completions[2], 3.0, 1e-9);
}

TEST_F(TransferTest, StarvedTransferResumesWhenCapacityReturns) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  TimePoint done_at = -1.0;
  transfers.start({ab}, megabits(10),
                  [&](TransferId) { done_at = sched.now(); });
  sched.schedule_at(0.5, [&] { net.set_link_capacity(ab, 0.0); });
  sched.schedule_at(10.5, [&] { net.set_link_capacity(ab, mbps(10)); });
  sched.run_all();
  // 5 Mb by 0.5 s, starved for 10 s, remaining 5 Mb takes 0.5 s.
  EXPECT_NEAR(done_at, 11.0, 1e-9);
}

TEST_F(TransferTest, SetDemandAdjustsPacing) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  TimePoint done_at = -1.0;
  TransferId id = transfers.start({ab}, megabits(10),
                                  [&](TransferId) { done_at = sched.now(); });
  sched.schedule_at(0.5, [&] { transfers.set_demand(id, mbps(1)); });
  sched.run_all();
  // 5 Mb by 0.5 s at 10 Mbps, then 5 Mb at 1 Mbps = 5 s.
  EXPECT_NEAR(done_at, 5.5, 1e-9);
}

TEST_F(TransferTest, ManyTransfersAllCompleteExactlyOnce) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  int completions = 0;
  for (int i = 0; i < 40; ++i)
    transfers.start({ab}, megabits(1 + i % 5),
                    [&](TransferId) { ++completions; });
  sched.run_all();
  EXPECT_EQ(completions, 40);
  EXPECT_EQ(transfers.active_count(), 0u);
  EXPECT_EQ(net.flow_count(), 0u);
}

TEST_F(TransferTest, SharedBottleneckChurnKeepsOneQueueEntryPerTransfer) {
  // Every start and finish on a shared bottleneck moves every other
  // transfer's rate, so every active transfer is re-predicted each time.
  // Each transfer's completion must move in place: the queue never holds
  // more than one entry per active transfer (plus the driver's own).
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  constexpr int kConcurrent = 40;
  constexpr int kReplacements = 400;
  int started = 0, completed = 0;
  std::function<void()> start_one = [&] {
    ++started;
    transfers.start({ab}, megabits(1 + started % 7), [&](TransferId) {
      ++completed;
      if (started < kConcurrent + kReplacements) start_one();
    });
  };
  for (int i = 0; i < kConcurrent; ++i) start_one();
  // Extra starts landing mid-transfer, between completions, from a driver
  // that keeps one post of its own queued.
  int extra = 0;
  std::function<void()> drive = [&] {
    start_one();
    if (++extra < 20) sched.post_after(0.37, [&] { drive(); });
  };
  sched.post_at(0.37, [&] { drive(); });
  std::size_t worst_excess = 0;
  while (sched.step()) {
    const std::size_t queued = sched.pending_events();
    const std::size_t active = transfers.active_count();
    if (queued > active) worst_excess = std::max(worst_excess, queued - active);
  }
  EXPECT_EQ(completed, started);
  EXPECT_GE(started, kConcurrent + kReplacements);
  EXPECT_EQ(transfers.active_count(), 0u);
  EXPECT_EQ(extra, 20);
  // The driver's one post is the only other entry ever queued.
  EXPECT_LE(worst_excess, 1u);
}

TEST_F(TransferTest, OneSchedulerEntryPerManagerHoweverManyTransfers) {
  // Pending completions live in each manager's own heap; the scheduler
  // sees one entry per manager, at its heap's front. Two managers on two
  // networks share one scheduler: hundreds of transfers, replaced from
  // their callbacks, cancelled and re-paced by a periodic post, never put
  // more than two completion entries (plus that one post) in the queue.
  sim::Scheduler sched;
  Network net1(topo), net2(topo);
  TransferManager transfers1(sched, net1), transfers2(sched, net2);
  constexpr int kTotal = 900;
  int started = 0, completed = 0;
  std::vector<TransferId> live1;
  std::function<void(TransferManager&)> start_one = [&](TransferManager& tm) {
    ++started;
    TransferId id = tm.start({ab}, megabits(1 + started % 11),
                             [&tm, &live1, &completed, &start_one,
                              &started](TransferId done) {
                               ++completed;
                               auto it = std::find(live1.begin(), live1.end(),
                                                   done);
                               if (it != live1.end()) live1.erase(it);
                               if (started < kTotal) start_one(tm);
                             });
    if (&tm == &transfers1) live1.push_back(id);
  };
  for (int i = 0; i < 300; ++i) start_one(transfers1);
  for (int i = 0; i < 50; ++i) start_one(transfers2);
  EXPECT_EQ(sched.pending_events(), 2u);

  int cancelled = 0;
  std::function<void()> drive = [&] {
    if (live1.size() > 2) {
      transfers1.cancel(live1[live1.size() / 2]);
      live1.erase(live1.begin() + static_cast<std::ptrdiff_t>(live1.size() / 2));
      ++cancelled;
      transfers1.set_demand(live1.front(), mbps(0.01 * (cancelled % 5 + 1)));
    }
    if (cancelled < 40) sched.post_after(0.5, [&] { drive(); });
  };
  sched.post_at(0.5, [&] { drive(); });
  std::size_t worst = 0;
  while (sched.step()) worst = std::max(worst, sched.pending_events());
  EXPECT_EQ(cancelled, 40);
  EXPECT_EQ(completed + cancelled, started);
  EXPECT_EQ(started, kTotal);
  EXPECT_EQ(transfers1.active_count() + transfers2.active_count(), 0u);
  EXPECT_LE(worst, 3u);
}

TEST_F(TransferTest, TaggedHookFollowsOwnFlowsThroughSlotRecycling) {
  // Each completion starts its replacement from the callback, so the freed
  // slot is taken again at once: the replacement's own add is reported
  // under a slot that is still released, and start() makes the first
  // prediction afterwards. Flows added straight to the network -- one
  // untagged, one tagged with a live transfer's slot -- must not move any
  // transfer. So after every step each transfer runs at exactly its own
  // flow's rate, and no completion is ever queued for a released slot.
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  constexpr int kConcurrent = 12;
  constexpr int kTotal = 200;
  int started = 0, completed = 0;
  std::vector<TransferId> active;
  std::function<void()> start_one = [&] {
    ++started;
    active.push_back(transfers.start(
        {ab}, megabits(1 + started % 5), [&](TransferId done) {
          ++completed;
          active.erase(std::find(active.begin(), active.end(), done));
          if (started < kTotal) start_one();
        }));
  };
  for (int i = 0; i < kConcurrent; ++i) start_one();
  net.add_flow({ab}, mbps(0.5));
  FlowId foreign = net.add_flow({ab}, mbps(0.25), 0);  // slot 0 is live
  sched.post_at(3.0, [&] { net.set_demand(foreign, mbps(0.75)); });
  std::size_t worst_excess = 0;
  while (sched.step()) {
    for (TransferId id : active)
      ASSERT_EQ(transfers.status(id).current_rate,
                net.rate(transfers.flow(id)))
          << "transfer " << id.value() << " at t=" << sched.now();
    const std::size_t queued = sched.pending_events();
    if (queued > active.size())
      worst_excess = std::max(worst_excess, queued - active.size());
  }
  EXPECT_EQ(started, kTotal);
  EXPECT_EQ(completed, kTotal);
  EXPECT_EQ(transfers.active_count(), 0u);
  EXPECT_LE(worst_excess, 1u);  // the one demand-change post
}

TEST_F(TransferTest, ZeroVolumeIsAContractViolation) {
  sim::Scheduler sched;
  Network net(topo);
  TransferManager transfers(sched, net);
  EXPECT_THROW(transfers.start({ab}, 0.0, nullptr), ContractViolation);
}

}  // namespace
}  // namespace eona::net
