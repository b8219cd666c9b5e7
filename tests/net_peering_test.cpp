// Tests for the peering book: registration, default and explicit selection.
#include "net/peering.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace eona::net {
namespace {

class PeeringTest : public ::testing::Test {
 protected:
  PeeringTest() {
    NodeId cdn_edge = topo.add_node(NodeKind::kCdnServer, "cdn");
    NodeId isp_edge = topo.add_node(NodeKind::kRouter, "isp");
    link_b = topo.add_link(cdn_edge, isp_edge, mbps(50), milliseconds(2));
    link_c = topo.add_link(cdn_edge, isp_edge, mbps(200), milliseconds(10));
  }
  Topology topo;
  LinkId link_b, link_c;
  IspId isp{0};
  CdnId cdn_x{0}, cdn_y{1};
};

TEST_F(PeeringTest, FirstRegisteredIsDefaultSelection) {
  PeeringBook book(topo);
  PeeringId b = book.add(isp, cdn_x, link_b, "B");
  PeeringId c = book.add(isp, cdn_x, link_c, "C");
  EXPECT_EQ(book.selected(isp, cdn_x), b);
  EXPECT_EQ(book.points_between(isp, cdn_x),
            (std::vector<PeeringId>{b, c}));
}

TEST_F(PeeringTest, SelectSwitchesThePair) {
  PeeringBook book(topo);
  book.add(isp, cdn_x, link_b, "B");
  PeeringId c = book.add(isp, cdn_x, link_c, "C");
  book.select(c);
  EXPECT_EQ(book.selected(isp, cdn_x), c);
}

TEST_F(PeeringTest, PairsAreIndependent) {
  PeeringBook book(topo);
  PeeringId xb = book.add(isp, cdn_x, link_b, "X@B");
  PeeringId yc = book.add(isp, cdn_y, link_c, "Y@C");
  EXPECT_EQ(book.selected(isp, cdn_x), xb);
  EXPECT_EQ(book.selected(isp, cdn_y), yc);
  EXPECT_EQ(book.points_of_isp(isp).size(), 2u);
}

TEST_F(PeeringTest, HasPeeringAgreesWithPointsBetweenForEveryPair) {
  PeeringBook book(topo);
  const IspId isp_b(1), isp_c(2);
  auto agree = [&] {
    for (IspId::rep_type i = 0; i < 4; ++i)
      for (CdnId::rep_type c = 0; c < 4; ++c)
        EXPECT_EQ(book.has_peering(IspId(i), CdnId(c)),
                  !book.points_between(IspId(i), CdnId(c)).empty())
            << "isp " << i << " cdn " << c;
  };
  agree();  // empty book
  book.add(isp, cdn_x, link_b, "X@B");
  PeeringId xc = book.add(isp, cdn_x, link_c, "X@C");
  book.add(isp_b, cdn_y, link_c, "Y@C");
  agree();
  book.select(xc);
  book.add(isp_c, cdn_x, link_b, "X@B for c");
  agree();
  EXPECT_TRUE(book.has_peering(isp_c, cdn_x));
  EXPECT_FALSE(book.has_peering(isp_c, cdn_y));
}

TEST_F(PeeringTest, PointsOfIspIsTheRegistrationOrderFilterForEveryIsp) {
  PeeringBook book(topo);
  // Interleave four ISPs' registrations, one ISP with none until the end,
  // and re-select between adds: the view must stay the filtered
  // registration-order list of the whole book.
  const IspId isps[] = {IspId(0), IspId(1), IspId(2), IspId(7)};
  auto agree = [&] {
    for (IspId i : isps) {
      std::vector<PeeringId> filtered;
      for (std::size_t k = 0; k < book.size(); ++k) {
        PeeringId id(static_cast<PeeringId::rep_type>(k));
        if (book.point(id).isp == i) filtered.push_back(id);
      }
      std::span<const PeeringId> view = book.points_of_isp(i);
      EXPECT_EQ(std::vector<PeeringId>(view.begin(), view.end()), filtered)
          << "isp " << i.value() << " after " << book.size() << " points";
    }
  };
  agree();  // empty book
  book.add(isps[1], cdn_x, link_b, "1X@B");
  book.add(isps[0], cdn_x, link_b, "0X@B");
  book.add(isps[1], cdn_y, link_c, "1Y@C");
  PeeringId zero_xc = book.add(isps[0], cdn_x, link_c, "0X@C");
  agree();
  book.select(zero_xc);
  book.add(isps[2], cdn_y, link_b, "2Y@B");
  book.add(isps[1], cdn_x, link_c, "1X@C");
  book.add(isps[0], cdn_y, link_b, "0Y@B");
  agree();
  book.add(isps[3], cdn_x, link_b, "7X@B");
  agree();
  EXPECT_EQ(book.points_of_isp(isps[0]).size(), 3u);
  EXPECT_EQ(book.points_of_isp(isps[1]).size(), 3u);
  EXPECT_TRUE(book.points_of_isp(IspId(5)).empty());
}

TEST_F(PeeringTest, UnknownPairThrows) {
  PeeringBook book(topo);
  EXPECT_THROW((void)book.selected(isp, cdn_x), NotFoundError);
  EXPECT_THROW((void)book.point(PeeringId(3)), NotFoundError);
}

TEST_F(PeeringTest, PointMetadataRoundTrips) {
  PeeringBook book(topo);
  PeeringId b = book.add(isp, cdn_x, link_b, "local-B");
  const PeeringPoint& p = book.point(b);
  EXPECT_EQ(p.isp, isp);
  EXPECT_EQ(p.cdn, cdn_x);
  EXPECT_EQ(p.ingress_link, link_b);
  EXPECT_EQ(p.name, "local-B");
}

}  // namespace
}  // namespace eona::net
