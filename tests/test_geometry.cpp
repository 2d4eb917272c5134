#include "common/geometry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace htnoc {
namespace {

class Geometry4x4 : public ::testing::Test {
 protected:
  MeshGeometry geom{4, 4, 4};  // the paper's 64-core CMesh
};

TEST_F(Geometry4x4, Sizes) {
  EXPECT_EQ(geom.num_routers(), 16);
  EXPECT_EQ(geom.num_cores(), 64);
  EXPECT_EQ(geom.concentration(), 4);
}

TEST_F(Geometry4x4, CoordRoundTrip) {
  for (RouterId r = 0; r < 16; ++r) {
    EXPECT_EQ(geom.router_at(geom.coord_of(r)), r);
  }
}

TEST_F(Geometry4x4, CornerNeighbors) {
  EXPECT_FALSE(geom.has_neighbor(0, Direction::kNorth));
  EXPECT_FALSE(geom.has_neighbor(0, Direction::kWest));
  EXPECT_TRUE(geom.has_neighbor(0, Direction::kEast));
  EXPECT_TRUE(geom.has_neighbor(0, Direction::kSouth));
  EXPECT_EQ(geom.neighbor(0, Direction::kEast), 1);
  EXPECT_EQ(geom.neighbor(0, Direction::kSouth), 4);

  EXPECT_FALSE(geom.has_neighbor(15, Direction::kSouth));
  EXPECT_FALSE(geom.has_neighbor(15, Direction::kEast));
  EXPECT_EQ(geom.neighbor(15, Direction::kNorth), 11);
  EXPECT_EQ(geom.neighbor(15, Direction::kWest), 14);
}

TEST_F(Geometry4x4, NeighborSymmetry) {
  for (RouterId r = 0; r < 16; ++r) {
    for (const Direction d : {Direction::kNorth, Direction::kSouth,
                              Direction::kEast, Direction::kWest}) {
      if (!geom.has_neighbor(r, d)) continue;
      const RouterId nb = geom.neighbor(r, d);
      ASSERT_TRUE(geom.has_neighbor(nb, opposite(d)));
      EXPECT_EQ(geom.neighbor(nb, opposite(d)), r);
    }
  }
}

TEST_F(Geometry4x4, CoreMapping) {
  for (NodeId c = 0; c < 64; ++c) {
    const RouterId r = geom.router_of_core(c);
    const int slot = geom.local_slot_of_core(c);
    EXPECT_EQ(geom.core_at(r, slot), c);
  }
  EXPECT_EQ(geom.router_of_core(0), 0);
  EXPECT_EQ(geom.router_of_core(3), 0);
  EXPECT_EQ(geom.router_of_core(4), 1);
  EXPECT_EQ(geom.router_of_core(63), 15);
}

TEST_F(Geometry4x4, HopDistance) {
  EXPECT_EQ(geom.hop_distance(0, 0), 0);
  EXPECT_EQ(geom.hop_distance(0, 1), 1);
  EXPECT_EQ(geom.hop_distance(0, 5), 2);
  EXPECT_EQ(geom.hop_distance(0, 15), 6);
  EXPECT_EQ(geom.hop_distance(3, 12), 6);
}

TEST_F(Geometry4x4, HopDistanceSymmetricAndTriangle) {
  for (RouterId a = 0; a < 16; ++a) {
    for (RouterId b = 0; b < 16; ++b) {
      EXPECT_EQ(geom.hop_distance(a, b), geom.hop_distance(b, a));
      for (RouterId c = 0; c < 16; ++c) {
        EXPECT_LE(geom.hop_distance(a, c),
                  geom.hop_distance(a, b) + geom.hop_distance(b, c));
      }
    }
  }
}

TEST(Geometry, RejectsDegenerateShapes) {
  EXPECT_THROW(MeshGeometry(0, 4, 4), ContractViolation);
  EXPECT_THROW(MeshGeometry(4, -1, 4), ContractViolation);
  EXPECT_THROW(MeshGeometry(4, 4, 0), ContractViolation);
}

TEST_F(Geometry4x4, LinksEnumerateTheMeshInCanonicalOrder) {
  const std::vector<LinkRef> links = geom.links();
  // 4 rows x 3 east/west pairs + 4 columns x 3 north/south pairs.
  EXPECT_EQ(links.size(), 48u);
  // Routers ascending, then N,S,E,W: r0 is the top-left corner.
  EXPECT_EQ(links[0], (LinkRef{0, Direction::kSouth}));
  EXPECT_EQ(links[1], (LinkRef{0, Direction::kEast}));
  EXPECT_EQ(links[2], (LinkRef{1, Direction::kSouth}));
  EXPECT_TRUE(std::is_sorted(links.begin(), links.end()));
  for (const LinkRef& l : links) {
    ASSERT_TRUE(geom.has_neighbor(l.from, l.dir));
    const LinkRef back{geom.neighbor(l.from, l.dir), opposite(l.dir)};
    EXPECT_TRUE(std::binary_search(links.begin(), links.end(), back));
  }
}

TEST(Geometry, NonSquareMesh) {
  const MeshGeometry g(8, 2, 1);
  EXPECT_EQ(g.num_routers(), 16);
  EXPECT_EQ(g.num_cores(), 16);
  EXPECT_EQ(g.coord_of(9).x, 1);
  EXPECT_EQ(g.coord_of(9).y, 1);
  EXPECT_FALSE(g.has_neighbor(9, Direction::kSouth));
  EXPECT_EQ(g.links().size(), 2u * 7 * 2 + 2u * 8 * 1);
}

}  // namespace
}  // namespace htnoc
