// Tests for the static topology graph.
#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace eona::net {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kClientPop, "b");
  LinkId ab = topo.add_link(a, b, mbps(10), milliseconds(5));
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.link(ab).src, a);
  EXPECT_EQ(topo.link(ab).dst, b);
  EXPECT_DOUBLE_EQ(topo.link(ab).capacity, mbps(10));
  EXPECT_EQ(topo.node(b).kind, NodeKind::kClientPop);
}

TEST(Topology, LinkNameDefaultsToEndpointNames) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "left");
  NodeId b = topo.add_node(NodeKind::kRouter, "right");
  LinkId ab = topo.add_link(a, b, mbps(1), 0.0);
  EXPECT_EQ(topo.link(ab).name, "left->right");
}

TEST(Topology, DuplexAddsBothDirections) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kRouter, "b");
  LinkId forward = topo.add_duplex_link(a, b, mbps(5), milliseconds(1));
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_EQ(topo.link(forward).src, a);
  LinkId reverse = topo.find_link(b, a);
  ASSERT_TRUE(reverse.valid());
  EXPECT_DOUBLE_EQ(topo.link(reverse).capacity, mbps(5));
}

TEST(Topology, FindLinkReturnsInvalidWhenAbsent) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kRouter, "b");
  EXPECT_FALSE(topo.find_link(a, b).valid());
}

TEST(Topology, ParallelLinksAreAllowed) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kRouter, "b");
  LinkId l1 = topo.add_link(a, b, mbps(1), 0.0, "small");
  LinkId l2 = topo.add_link(a, b, mbps(10), 0.0, "big");
  EXPECT_NE(l1, l2);
  EXPECT_EQ(topo.out_links(a).size(), 2u);
  // find_link returns the first registered.
  EXPECT_EQ(topo.find_link(a, b), l1);
}

TEST(Topology, UnknownIdsThrow) {
  Topology topo;
  topo.add_node(NodeKind::kRouter, "a");
  EXPECT_THROW((void)topo.node(NodeId(5)), NotFoundError);
  EXPECT_THROW((void)topo.link(LinkId(0)), NotFoundError);
  EXPECT_THROW((void)topo.node(NodeId{}), NotFoundError);
}

TEST(Topology, LinkValidationIsContractual) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kRouter, "b");
  EXPECT_THROW(topo.add_link(a, b, 0.0, 0.0), ContractViolation);      // no capacity
  EXPECT_THROW(topo.add_link(a, b, mbps(1), -1.0), ContractViolation); // negative delay
  EXPECT_THROW(topo.add_link(a, NodeId(9), mbps(1), 0.0), ContractViolation);
}

TEST(Topology, OutLinksPreserveInsertionOrder) {
  Topology topo;
  NodeId hub = topo.add_node(NodeKind::kRouter, "hub");
  std::vector<LinkId> expected;
  for (int i = 0; i < 5; ++i) {
    NodeId spoke = topo.add_node(NodeKind::kRouter, "s" + std::to_string(i));
    expected.push_back(topo.add_link(hub, spoke, mbps(1), 0.0));
  }
  EXPECT_EQ(topo.out_links(hub), expected);
}

}  // namespace
}  // namespace eona::net
