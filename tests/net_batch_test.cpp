// Tests for Network batching: hook coalescing, nesting, empty batches,
// exception safety, recompute accounting, and equivalence of batched vs
// per-mutation results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"

namespace eona::net {
namespace {

class NetworkBatchTest : public ::testing::Test {
 protected:
  NetworkBatchTest() {
    a = topo.add_node(NodeKind::kRouter, "a");
    b = topo.add_node(NodeKind::kRouter, "b");
    c = topo.add_node(NodeKind::kRouter, "c");
    ab = topo.add_link(a, b, mbps(10), milliseconds(1));
    bc = topo.add_link(b, c, mbps(20), milliseconds(1));
  }
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;
};

TEST_F(NetworkBatchTest, BatchFiresHookExactlyOnceAtCommit) {
  Network net(topo);
  int hook_calls = 0;
  RateReport last;
  net.set_rates_changed_hook([&](const RateReport& report) {
    ++hook_calls;
    last = report;
  });
  FlowId f1, f2, f3;
  {
    Network::Batch batch(net);
    f1 = net.add_flow({ab});
    f2 = net.add_flow({ab, bc});
    f3 = net.add_flow({bc});
    // Nothing fires until commit; rates are stale inside the batch.
    EXPECT_EQ(hook_calls, 0);
  }
  EXPECT_EQ(hook_calls, 1);
  // All three flows are new, so each is listed on its own, moved from 0 to
  // its share, in ascending flow-id order.
  ASSERT_EQ(last.flows.size(), 3u);
  EXPECT_EQ(last.flows[0].flow, f1);
  EXPECT_EQ(last.flows[1].flow, f2);
  EXPECT_EQ(last.flows[2].flow, f3);
  for (const FlowRate& change : last.flows) {
    EXPECT_TRUE(change.moved);
    EXPECT_EQ(change.rate, net.rate(change.flow));
  }
}

TEST_F(NetworkBatchTest, BatchRunsOneRecompute) {
  Network net(topo);
  std::uint64_t base = net.recompute_count();
  {
    Network::Batch batch(net);
    for (int i = 0; i < 16; ++i) net.add_flow({ab});
  }
  EXPECT_EQ(net.recompute_count(), base + 1);
  // Unbatched: one recompute per mutation.
  base = net.recompute_count();
  net.add_flow({ab});
  net.add_flow({bc});
  net.set_link_capacity(ab, mbps(5));
  EXPECT_EQ(net.recompute_count(), base + 3);
}

TEST_F(NetworkBatchTest, NestedBatchesCommitAtOutermost) {
  Network net(topo);
  int after_calls = 0;
  net.set_rates_changed_hook(
      [&](const RateReport&) { ++after_calls; });
  std::uint64_t base = net.recompute_count();
  {
    Network::Batch outer(net);
    net.add_flow({ab});
    {
      Network::Batch inner(net);
      net.add_flow({ab});
      net.add_flow({bc});
    }
    // Inner commit must not recompute or fire the hook.
    EXPECT_EQ(net.recompute_count(), base);
    EXPECT_EQ(after_calls, 0);
  }
  EXPECT_EQ(net.recompute_count(), base + 1);
  EXPECT_EQ(after_calls, 1);
}

TEST_F(NetworkBatchTest, EmptyBatchFiresNothing) {
  Network net(topo);
  net.add_flow({ab});
  int hook_calls = 0;
  net.set_rates_changed_hook(
      [&](const RateReport&) { ++hook_calls; });
  std::uint64_t base = net.recompute_count();
  {
    Network::Batch batch(net);
  }
  {
    Network::Batch outer(net);
    Network::Batch inner(net);
  }
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(net.recompute_count(), base);
}

TEST_F(NetworkBatchTest, NoopMutationsInsideBatchStayNoops) {
  Network net(topo);
  FlowId f = net.add_flow({ab}, mbps(3));
  int hook_calls = 0;
  net.set_rates_changed_hook(
      [&](const RateReport&) { ++hook_calls; });
  std::uint64_t base = net.recompute_count();
  {
    Network::Batch batch(net);
    net.set_demand(f, mbps(3));                     // same demand: no-op
    net.set_link_capacity(ab, net.link_capacity(ab));  // same cap: no-op
  }
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(net.recompute_count(), base);
}

TEST_F(NetworkBatchTest, MidBatchStructureIsLiveRatesAreStale) {
  Network net(topo);
  FlowId f0 = net.add_flow({ab});
  {
    Network::Batch batch(net);
    FlowId f1 = net.add_flow({ab});
    EXPECT_TRUE(net.contains(f1));
    EXPECT_EQ(net.flow_count(), 2u);
    EXPECT_EQ(net.link_flow_count(ab), 2);
    EXPECT_TRUE(net.in_batch());
    // Rates move only at commit: the old flow still holds the whole link,
    // the new one has nothing yet.
    EXPECT_NEAR(net.rate(f0), mbps(10), 1.0);
    EXPECT_EQ(net.rate(f1), 0.0);
  }
  EXPECT_FALSE(net.in_batch());
  EXPECT_NEAR(net.rate(f0), mbps(5), 1.0);
}

TEST_F(NetworkBatchTest, ThrowingMutationLeavesNetworkConsistent) {
  Network net(topo);
  FlowId keep = net.add_flow({ab, bc});
  FlowId added;
  EXPECT_THROW(
      {
        Network::Batch batch(net);
        added = net.add_flow({ab});
        net.add_flow({LinkId(99)});  // unknown link: throws mid-batch
      },
      NotFoundError);
  // The Batch destructor committed the mutations that succeeded; the failed
  // one left no partial state behind.
  EXPECT_EQ(net.flow_count(), 2u);
  EXPECT_TRUE(net.contains(added));
  EXPECT_NEAR(net.rate(keep) + net.rate(added), mbps(10), 1.0);
  EXPECT_NEAR(net.link_allocated(ab), mbps(10), 1.0);
  EXPECT_THROW(
      {
        Network::Batch batch(net);
        net.remove_flow(FlowId(1234));  // unknown flow mid-batch
      },
      NotFoundError);
  EXPECT_EQ(net.flow_count(), 2u);
}

TEST_F(NetworkBatchTest, EarlyCommitThenDestructorIsSingleCommit) {
  Network net(topo);
  int after_calls = 0;
  net.set_rates_changed_hook(
      [&](const RateReport&) { ++after_calls; });
  std::uint64_t base = net.recompute_count();
  {
    Network::Batch batch(net);
    FlowId f = net.add_flow({ab});
    batch.commit();
    EXPECT_NEAR(net.rate(f), mbps(10), 1.0);  // rates live after commit
    EXPECT_EQ(after_calls, 1);
  }
  EXPECT_EQ(after_calls, 1);
  EXPECT_EQ(net.recompute_count(), base + 1);
}

TEST_F(NetworkBatchTest, BatchedEqualsUnbatchedBitExact) {
  Network batched(topo), unbatched(topo);
  std::vector<FlowId> bf, uf;
  {
    Network::Batch batch(batched);
    bf.push_back(batched.add_flow({ab, bc}));
    bf.push_back(batched.add_flow({ab}, mbps(2)));
    bf.push_back(batched.add_flow({bc}));
    batched.set_demand(bf[0], mbps(7));
    batched.set_link_capacity(bc, mbps(12));
  }
  uf.push_back(unbatched.add_flow({ab, bc}));
  uf.push_back(unbatched.add_flow({ab}, mbps(2)));
  uf.push_back(unbatched.add_flow({bc}));
  unbatched.set_demand(uf[0], mbps(7));
  unbatched.set_link_capacity(bc, mbps(12));
  for (std::size_t i = 0; i < bf.size(); ++i)
    EXPECT_EQ(batched.rate(bf[i]), unbatched.rate(uf[i])) << "flow " << i;
  EXPECT_EQ(batched.link_allocated(ab), unbatched.link_allocated(ab));
  EXPECT_EQ(batched.link_allocated(bc), unbatched.link_allocated(bc));
}

TEST_F(NetworkBatchTest, RemovalBatchZeroesAbandonedLinks) {
  Network net(topo);
  FlowId f1 = net.add_flow({ab});
  FlowId f2 = net.add_flow({ab});
  {
    Network::Batch batch(net);
    net.remove_flow(f1);
    net.remove_flow(f2);
  }
  EXPECT_EQ(net.flow_count(), 0u);
  EXPECT_EQ(net.link_allocated(ab), 0.0);
  EXPECT_EQ(net.link_flow_count(ab), 0);
}

}  // namespace
}  // namespace eona::net
