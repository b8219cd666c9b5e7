// Tests for the LRU cache, the content catalog, and the CDN model.
#include "app/cdn.hpp"

#include <gtest/gtest.h>

#include <string>

#include "app/content_catalog.hpp"
#include "app/lru_cache.hpp"
#include "net/network.hpp"
#include "net/peering.hpp"
#include "sim/rng.hpp"

namespace eona::app {
namespace {

// --- LruCache ---------------------------------------------------------------

TEST(LruCache, InsertContainsErase) {
  LruCache<int> cache(3);
  EXPECT_TRUE(cache.insert(1));
  EXPECT_FALSE(cache.insert(1));  // refresh, not a new insert
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(3);
  cache.insert(1);
  cache.insert(2);
  cache.insert(3);
  cache.insert(4);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCache, TouchRefreshesRecency) {
  LruCache<int> cache(3);
  cache.insert(1);
  cache.insert(2);
  cache.insert(3);
  EXPECT_TRUE(cache.touch(1));  // 1 becomes most recent; 2 is now LRU
  cache.insert(4);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_FALSE(cache.touch(99));
}

TEST(LruCache, ClearEmptiesEverything) {
  LruCache<int> cache(2);
  cache.insert(1);
  cache.insert(2);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruCache, ZeroCapacityIsAContractViolation) {
  EXPECT_THROW(LruCache<int>(0), ContractViolation);
}

// --- ContentCatalog ------------------------------------------------------------

TEST(ContentCatalog, VideoItemsCarryDuration) {
  ContentCatalog catalog = ContentCatalog::videos(5, 120.0);
  EXPECT_EQ(catalog.size(), 5u);
  const ContentItem& item = catalog.item(ContentId(2));
  EXPECT_EQ(item.kind, ContentKind::kVideo);
  EXPECT_DOUBLE_EQ(item.video_duration, 120.0);
  EXPECT_EQ(item.name, "video-2");
}

TEST(ContentCatalog, PageItemsCarryBits) {
  ContentCatalog catalog = ContentCatalog::pages(3, megabits(10));
  EXPECT_EQ(catalog.item(ContentId(0)).kind, ContentKind::kWebPage);
  EXPECT_DOUBLE_EQ(catalog.item(ContentId(0)).page_bits, megabits(10));
}

TEST(ContentCatalog, SamplingFollowsPopularity) {
  ContentCatalog catalog = ContentCatalog::videos(10, 60.0, /*skew=*/1.0);
  sim::Rng rng(4);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[catalog.sample(rng).value()];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
  double expected = catalog.popularity(ContentId(0));
  EXPECT_NEAR(counts[0] / 20000.0, expected, 0.02);
}

// --- Cdn -------------------------------------------------------------------------

class CdnTest : public ::testing::Test {
 protected:
  CdnTest() : cdn(CdnId(0), "cdn", NodeId{}) {
    client = topo.add_node(net::NodeKind::kClientPop, "client");
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    s1 = topo.add_node(net::NodeKind::kCdnServer, "s1");
    s2 = topo.add_node(net::NodeKind::kCdnServer, "s2");
    origin = topo.add_node(net::NodeKind::kOrigin, "origin");
    topo.add_link(edge, client, mbps(100), milliseconds(1));
    e1 = topo.add_link(s1, edge, mbps(50), milliseconds(1));
    e2 = topo.add_link(s2, edge, mbps(50), milliseconds(1));
    o1 = topo.add_link(origin, s1, mbps(20), milliseconds(10));
    topo.add_link(origin, s2, mbps(20), milliseconds(10));
    cdn = Cdn(CdnId(0), "cdn", origin);
    srv1 = cdn.add_server(s1, e1, 4);
    srv2 = cdn.add_server(s2, e2, 4);
  }
  net::Topology topo;
  NodeId client, edge, s1, s2, origin;
  LinkId e1, e2, o1;
  Cdn cdn;
  ServerId srv1, srv2;
};

TEST_F(CdnTest, CacheMissDetoursThroughOriginThenHits) {
  net::Routing routing(topo);
  FetchPlan miss = cdn.plan_fetch(ContentId(0), srv1, client, IspId{}, routing);
  EXPECT_FALSE(miss.cache_hit);
  ASSERT_EQ(miss.path.size(), 3u);  // origin->s1, s1->edge, edge->client
  EXPECT_EQ(miss.path[0], o1);

  FetchPlan hit = cdn.plan_fetch(ContentId(0), srv1, client, IspId{}, routing);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.path.size(), 2u);
  EXPECT_EQ(cdn.cache_hits(), 1u);
  EXPECT_EQ(cdn.cache_misses(), 1u);
  EXPECT_DOUBLE_EQ(cdn.hit_ratio(), 0.5);
}

TEST_F(CdnTest, WarmAndClearCache) {
  net::Routing routing(topo);
  cdn.warm_cache(srv2, {ContentId(1), ContentId(2)});
  EXPECT_TRUE(
      cdn.plan_fetch(ContentId(1), srv2, client, IspId{}, routing).cache_hit);
  cdn.clear_cache(srv2);
  EXPECT_FALSE(
      cdn.plan_fetch(ContentId(1), srv2, client, IspId{}, routing).cache_hit);
}

TEST_F(CdnTest, CachesAreIndependentPerServer) {
  net::Routing routing(topo);
  cdn.warm_cache(srv1, {ContentId(3)});
  EXPECT_TRUE(
      cdn.plan_fetch(ContentId(3), srv1, client, IspId{}, routing).cache_hit);
  EXPECT_FALSE(
      cdn.plan_fetch(ContentId(3), srv2, client, IspId{}, routing).cache_hit);
}

TEST_F(CdnTest, PickServerIsLeastLoaded) {
  net::Network network(topo);
  network.add_flow({e1});
  network.add_flow({e1});
  network.add_flow({e2});
  EXPECT_EQ(cdn.pick_server(network), srv2);
  EXPECT_EQ(cdn.server_load(srv1, network), 2);
}

TEST_F(CdnTest, OfflineServersAreSkippedAndEmptyThrows) {
  net::Network network(topo);
  cdn.set_online(srv1, false);
  EXPECT_EQ(cdn.pick_server(network), srv2);
  EXPECT_EQ(cdn.online_count(), 1u);
  cdn.set_online(srv2, false);
  EXPECT_THROW((void)cdn.pick_server(network), NotFoundError);
}

TEST_F(CdnTest, PeeringSelectionShapesDeliveryPath) {
  // Two parallel ingress links from s1 to edge; the ISP's selection decides.
  LinkId alt = topo.add_link(s1, edge, mbps(200), milliseconds(20), "alt");
  net::Routing routing(topo);
  net::PeeringBook book(topo);
  IspId isp(0);
  PeeringId preferred = book.add(isp, cdn.id(), e1, "primary");
  PeeringId alternate = book.add(isp, cdn.id(), alt, "alternate");
  cdn.set_peering_book(&book);
  cdn.warm_cache(srv1, {ContentId(7)});

  FetchPlan via_primary =
      cdn.plan_fetch(ContentId(7), srv1, client, isp, routing);
  ASSERT_FALSE(via_primary.path.empty());
  EXPECT_EQ(via_primary.path[0], e1);

  book.select(alternate);
  FetchPlan via_alt = cdn.plan_fetch(ContentId(7), srv1, client, isp, routing);
  EXPECT_EQ(via_alt.path[0], alt);
  (void)preferred;
}

/// Reference planner: the path built by value from copies of the cached
/// segments, the server's tail first and the origin detour in front of it
/// on a miss.
net::Path composed_path(const Cdn& cdn, const net::PeeringBook* book,
                        ServerId server, NodeId client, IspId isp, bool hit,
                        const net::Routing& routing) {
  NodeId node = cdn.server(server).node;
  net::Path tail;
  if (book != nullptr && isp.valid() &&
      !book->points_between(isp, cdn.id()).empty()) {
    LinkId via = book->point(book->selected(isp, cdn.id())).ingress_link;
    const net::Link& link = routing.topology().link(via);
    tail = routing.shortest_path(node, link.src);
    tail.push_back(via);
    net::Path rest = routing.shortest_path(link.dst, client);
    tail.insert(tail.end(), rest.begin(), rest.end());
  } else {
    tail = routing.shortest_path(node, client);
  }
  if (hit) return tail;
  net::Path path = routing.shortest_path(cdn.origin_node(), node);
  path.insert(path.end(), tail.begin(), tail.end());
  return path;
}

TEST_F(CdnTest, PlanFetchMatchesTheByValueComposition) {
  LinkId alt = topo.add_link(s1, edge, mbps(200), milliseconds(20), "alt");
  net::Network network(topo);
  net::Routing routing(topo);
  routing.attach_link_state(&network);
  net::PeeringBook book(topo);
  const IspId isp(0);
  PeeringId primary = book.add(isp, cdn.id(), e1, "primary");
  PeeringId alternate = book.add(isp, cdn.id(), alt, "alternate");
  const net::PeeringBook* attached = nullptr;

  int plans = 0;
  auto check = [&](ContentId content, ServerId server, IspId client_isp,
                   bool expect_hit) {
    SCOPED_TRACE(testing::Message() << "plan " << plans++);
    net::Path expected = composed_path(cdn, attached, server, client,
                                       client_isp, expect_hit, routing);
    FetchPlan plan = cdn.plan_fetch(content, server, client, client_isp,
                                    routing);
    EXPECT_EQ(plan.cache_hit, expect_hit);
    EXPECT_EQ(plan.server, server);
    EXPECT_EQ(plan.path, expected);
  };

  // No peering book: shortest paths, miss then hit, on both servers.
  check(ContentId(0), srv1, isp, false);
  check(ContentId(0), srv1, isp, true);
  check(ContentId(0), srv2, isp, false);
  // A book, but a client with no ISP: still the shortest path.
  cdn.set_peering_book(&book);
  attached = &book;
  check(ContentId(1), srv1, IspId{}, false);
  // The default selection (primary), miss then hit.
  check(ContentId(2), srv1, isp, false);
  check(ContentId(2), srv1, isp, true);
  // The InfP moves the pair onto the alternate point.
  book.select(alternate);
  check(ContentId(2), srv1, isp, true);
  check(ContentId(3), srv1, isp, false);
  // Across a link down/up epoch: the shortest paths move off e1 and back,
  // a demanded peering link is used even while down.
  network.set_link_up(e1, false);
  check(ContentId(4), srv1, isp, false);
  book.select(primary);
  check(ContentId(4), srv1, isp, true);
  attached = nullptr;
  cdn.set_peering_book(nullptr);
  check(ContentId(4), srv1, isp, true);
  check(ContentId(5), srv1, isp, false);
  const LinkId edge_client(0);  // the fixture's first link
  EXPECT_EQ(cdn.plan_fetch(ContentId(5), srv1, client, isp, routing).path,
            (net::Path{alt, edge_client}));
  network.set_link_up(e1, true);
  check(ContentId(5), srv1, isp, true);
  check(ContentId(6), srv1, isp, false);
}

TEST_F(CdnTest, MissingTailRouteIsReportedBeforeTheOriginDetour) {
  // A client nothing reaches and a server the origin does not feed: both
  // routes are missing, and the tail's is the one reported. The first plan
  // throws before it counts the miss; the second counts it and then throws
  // on the detour; neither caches the content.
  NodeId island = topo.add_node(net::NodeKind::kClientPop, "island");
  NodeId s3 = topo.add_node(net::NodeKind::kCdnServer, "s3");
  LinkId e3 = topo.add_link(s3, edge, mbps(50), milliseconds(1));
  ServerId srv3 = cdn.add_server(s3, e3, 4);
  net::Routing routing(topo);
  try {
    (void)cdn.plan_fetch(ContentId(0), srv3, island, IspId{}, routing);
    FAIL() << "plan_fetch must throw";
  } catch (const NotFoundError& e) {
    EXPECT_NE(std::string(e.what()).find("island"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cdn.cache_misses(), 0u);
  try {
    (void)cdn.plan_fetch(ContentId(0), srv3, client, IspId{}, routing);
    FAIL() << "plan_fetch must throw";
  } catch (const NotFoundError& e) {
    EXPECT_NE(std::string(e.what()).find("origin"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cdn.cache_misses(), 1u);
  EXPECT_FALSE(cdn.server(srv3).cache.contains(ContentId(0)));
}

TEST_F(CdnTest, DirectoryResolvesAndRejects) {
  CdnDirectory directory;
  directory.add(&cdn);
  EXPECT_EQ(&directory.at(CdnId(0)), &cdn);
  EXPECT_THROW((void)directory.at(CdnId(5)), NotFoundError);
}

TEST_F(CdnTest, UnknownServerThrows) {
  EXPECT_THROW((void)cdn.server(ServerId(9)), NotFoundError);
  EXPECT_THROW(cdn.set_online(ServerId(9), false), NotFoundError);
}

}  // namespace
}  // namespace eona::app
