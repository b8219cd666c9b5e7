// Tests for Dijkstra routing: correctness, determinism, via-constraints.
#include "net/routing.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace eona::net {
namespace {

/// A small diamond:  a -> b -> d (slow upper), a -> c -> d (fast lower),
/// plus a direct a -> d link that is slowest.
class DiamondTest : public ::testing::Test {
 protected:
  DiamondTest() {
    a = topo.add_node(NodeKind::kRouter, "a");
    b = topo.add_node(NodeKind::kRouter, "b");
    c = topo.add_node(NodeKind::kRouter, "c");
    d = topo.add_node(NodeKind::kRouter, "d");
    ab = topo.add_link(a, b, mbps(10), milliseconds(10));
    bd = topo.add_link(b, d, mbps(10), milliseconds(10));
    ac = topo.add_link(a, c, mbps(10), milliseconds(4));
    cd = topo.add_link(c, d, mbps(10), milliseconds(4));
    ad = topo.add_link(a, d, mbps(10), milliseconds(50));
  }
  Topology topo;
  NodeId a, b, c, d;
  LinkId ab, bd, ac, cd, ad;
};

TEST_F(DiamondTest, ShortestPathPicksMinimumDelay) {
  Routing routing(topo);
  Path path = routing.shortest_path(a, d);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], ac);
  EXPECT_EQ(path[1], cd);
  EXPECT_DOUBLE_EQ(path_delay(topo, path), milliseconds(8));
}

TEST_F(DiamondTest, SelfPathIsEmpty) {
  Routing routing(topo);
  EXPECT_TRUE(routing.shortest_path(a, a).empty());
  EXPECT_TRUE(routing.has_route(a, a));
}

TEST_F(DiamondTest, PathViaForcesTheWaypoint) {
  Routing routing(topo);
  Path path;
  routing.path_via(a, b, d, path);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], ab);
  EXPECT_EQ(path[1], bd);
}

TEST_F(DiamondTest, PathViaLinkForcesTheLink) {
  Routing routing(topo);
  Path path;
  routing.path_via_link(a, ad, d, path);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], ad);

  // Via the slow b->d link: must route a->b first.
  Path via_bd;
  routing.path_via_link(a, bd, d, via_bd);
  ASSERT_EQ(via_bd.size(), 2u);
  EXPECT_EQ(via_bd[0], ab);
  EXPECT_EQ(via_bd[1], bd);
}

TEST_F(DiamondTest, ComposedQueriesAppendToTheBuffer) {
  Routing routing(topo);
  Path path{cd};  // whatever the caller already holds stays in front
  routing.path_via_link(a, bd, d, path);
  routing.path_via(a, b, d, path);
  EXPECT_EQ(path, (Path{cd, ab, bd, ab, bd}));
}

TEST_F(DiamondTest, PathViaLinkLeavesTheBufferAloneWhenATailIsMissing) {
  // Nothing leaves d, so the tail d -> a is missing; the head a -> a is
  // empty and would have been appended first.
  Routing routing(topo);
  Path path{ab};
  EXPECT_THROW(routing.path_via_link(a, ad, a, path), NotFoundError);
  EXPECT_EQ(path, Path{ab});
}

TEST_F(DiamondTest, PathConnectsValidatesWalks) {
  EXPECT_TRUE(path_connects(topo, {ac, cd}, a, d));
  EXPECT_FALSE(path_connects(topo, {cd, ac}, a, d));  // broken order
  EXPECT_FALSE(path_connects(topo, {ac}, a, d));      // stops early
  EXPECT_TRUE(path_connects(topo, {}, a, a));
  EXPECT_FALSE(path_connects(topo, {}, a, d));
}

TEST(Routing, NoRouteThrows) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kRouter, "island");
  Routing routing(topo);
  EXPECT_FALSE(routing.has_route(a, b));
  EXPECT_THROW((void)routing.shortest_path(a, b), NotFoundError);
}

TEST(Routing, DirectedLinksAreOneWay) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kRouter, "a");
  NodeId b = topo.add_node(NodeKind::kRouter, "b");
  topo.add_link(a, b, mbps(1), milliseconds(1));
  Routing routing(topo);
  EXPECT_TRUE(routing.has_route(a, b));
  EXPECT_FALSE(routing.has_route(b, a));
}

TEST(Routing, EqualCostTieBreaksDeterministically) {
  // Two equal-delay parallel two-hop routes; the one through the
  // lower-id links must win, consistently.
  Topology topo;
  NodeId s = topo.add_node(NodeKind::kRouter, "s");
  NodeId m1 = topo.add_node(NodeKind::kRouter, "m1");
  NodeId m2 = topo.add_node(NodeKind::kRouter, "m2");
  NodeId t = topo.add_node(NodeKind::kRouter, "t");
  LinkId s_m1 = topo.add_link(s, m1, mbps(1), milliseconds(5));
  topo.add_link(s, m2, mbps(1), milliseconds(5));
  LinkId m1_t = topo.add_link(m1, t, mbps(1), milliseconds(5));
  topo.add_link(m2, t, mbps(1), milliseconds(5));
  Routing routing(topo);
  for (int i = 0; i < 5; ++i) {
    Path path = routing.shortest_path(s, t);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], s_m1);
    EXPECT_EQ(path[1], m1_t);
  }
}

TEST(Routing, LongChain) {
  Topology topo;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 50; ++i)
    nodes.push_back(topo.add_node(NodeKind::kRouter, "n" + std::to_string(i)));
  for (int i = 0; i + 1 < 50; ++i)
    topo.add_link(nodes[i], nodes[i + 1], mbps(1), milliseconds(1));
  Routing routing(topo);
  Path path = routing.shortest_path(nodes.front(), nodes.back());
  EXPECT_EQ(path.size(), 49u);
  EXPECT_TRUE(path_connects(topo, path, nodes.front(), nodes.back()));
  EXPECT_NEAR(path_delay(topo, path), milliseconds(49), 1e-12);
}

}  // namespace
}  // namespace eona::net
