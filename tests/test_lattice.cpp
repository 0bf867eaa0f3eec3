#include "lattice/lattice.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace casurf {
namespace {

TEST(Lattice, SizeAndDimensions) {
  const Lattice lat(7, 5);
  EXPECT_EQ(lat.width(), 7);
  EXPECT_EQ(lat.height(), 5);
  EXPECT_EQ(lat.size(), 35u);
}

TEST(Lattice, RejectsSidesItCannotIndex) {
  // Sides must be positive, and every site needs a 32-bit SiteIndex below
  // its maximum value, so at most 2^32 - 1 sites.
  const std::pair<std::int32_t, std::int32_t> bad[] = {
      {0, 5}, {5, 0}, {-3, 4}, {65536, 65537}, {2147483647, 2147483647}};
  for (const auto& [w, h] : bad) {
    try {
      (void)Lattice(w, h);
      ADD_FAILURE() << w << " x " << h << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(w) + " x " + std::to_string(h)),
                std::string::npos)
          << e.what();
    }
  }
  // The largest site count still fits: 65535 * 65537 == 2^32 - 1.
  EXPECT_EQ(Lattice(65535, 65537).size(), 4294967295u);
  EXPECT_EQ(Lattice(1, 2147483647).size(), 2147483647u);
}

TEST(Lattice, IndexCoordRoundTrip) {
  const Lattice lat(11, 4);
  for (SiteIndex i = 0; i < lat.size(); ++i) {
    EXPECT_EQ(lat.index(lat.coord(i)), i);
  }
}

TEST(Lattice, RowMajorOrder) {
  const Lattice lat(10, 10);
  EXPECT_EQ(lat.index({0, 0}), 0u);
  EXPECT_EQ(lat.index({9, 0}), 9u);
  EXPECT_EQ(lat.index({0, 1}), 10u);
  EXPECT_EQ(lat.index({3, 2}), 23u);
}

TEST(Lattice, WrapPositive) {
  const Lattice lat(5, 3);
  EXPECT_EQ(lat.wrap({5, 3}), (Vec2{0, 0}));
  EXPECT_EQ(lat.wrap({7, 4}), (Vec2{2, 1}));
  EXPECT_EQ(lat.wrap({12, 9}), (Vec2{2, 0}));
}

TEST(Lattice, WrapNegative) {
  const Lattice lat(5, 3);
  EXPECT_EQ(lat.wrap({-1, -1}), (Vec2{4, 2}));
  EXPECT_EQ(lat.wrap({-5, -3}), (Vec2{0, 0}));
  EXPECT_EQ(lat.wrap({-6, -4}), (Vec2{4, 2}));
}

TEST(Lattice, NeighborPeriodicity) {
  const Lattice lat(4, 4);
  const SiteIndex corner = lat.index({0, 0});
  EXPECT_EQ(lat.neighbor(corner, {-1, 0}), lat.index({3, 0}));
  EXPECT_EQ(lat.neighbor(corner, {0, -1}), lat.index({0, 3}));
  EXPECT_EQ(lat.neighbor(corner, {1, 1}), lat.index({1, 1}));
}

TEST(Lattice, NeighborTranslationInvariance) {
  // Moving base by t and offset fixed commutes with wrapping:
  // neighbor(s + t, o) == wrap(coord(neighbor(s, o)) + t).
  const Lattice lat(6, 5);
  const Vec2 offset{2, -1};
  const Vec2 t{3, 4};
  for (SiteIndex s = 0; s < lat.size(); ++s) {
    const SiteIndex moved = lat.index(lat.wrap(lat.coord(s) + t));
    const Vec2 a = lat.coord(lat.neighbor(moved, offset));
    const Vec2 b = lat.wrap(lat.coord(lat.neighbor(s, offset)) + t);
    EXPECT_EQ(a, b);
  }
}

TEST(Lattice, NeighborsBatch) {
  const Lattice lat(4, 4);
  const auto ns = lat.neighbors(lat.index({1, 1}), Lattice::von_neumann_offsets());
  ASSERT_EQ(ns.size(), 4u);
  EXPECT_EQ(ns[0], lat.index({2, 1}));
  EXPECT_EQ(ns[1], lat.index({1, 2}));
  EXPECT_EQ(ns[2], lat.index({0, 1}));
  EXPECT_EQ(ns[3], lat.index({1, 0}));
}

TEST(Lattice, OneDimensional) {
  const Lattice lat(9, 1);
  EXPECT_EQ(lat.size(), 9u);
  EXPECT_EQ(lat.neighbor(0, {-1, 0}), 8u);
  EXPECT_EQ(lat.neighbor(8, {1, 0}), 0u);
  // Vertical offsets wrap onto the same row.
  EXPECT_EQ(lat.neighbor(4, {0, 1}), 4u);
}

TEST(Lattice, Equality) {
  EXPECT_EQ(Lattice(4, 5), Lattice(4, 5));
  EXPECT_FALSE(Lattice(4, 5) == Lattice(5, 4));
}

// --- Division-free addressing ---------------------------------------------
//
// coord() takes the row from a reciprocal of the width and wrap() adds or
// subtracts one period per axis; both are held to the modulo formulas.

/// (c + d) mod m, in [0, m).
std::int64_t ref_mod(std::int64_t c, std::int64_t d, std::int64_t m) {
  return (((c + d) % m) + m) % m;
}

/// First site where coord() or neighbor() leaves the modulo formulas, for
/// every site of `sites` and every offset of dxs x dys; "" when none does.
std::string first_mismatch(const Lattice& lat, const std::vector<SiteIndex>& sites,
                           const std::vector<std::int32_t>& dxs,
                           const std::vector<std::int32_t>& dys) {
  const std::int64_t w = lat.width();
  const std::int64_t h = lat.height();
  std::vector<std::int64_t> column(dxs.size());  // the wrapped x of each dx
  for (const SiteIndex s : sites) {
    const std::int64_t x = s % w;
    const std::int64_t y = s / w;
    const Vec2 c = lat.coord(s);
    if (c.x != x || c.y != y) {
      return "coord(" + std::to_string(s) + ") = (" + std::to_string(c.x) + ", " +
             std::to_string(c.y) + ")";
    }
    for (std::size_t j = 0; j < dxs.size(); ++j) column[j] = ref_mod(x, dxs[j], w);
    for (const std::int32_t dy : dys) {
      const std::int64_t row = ref_mod(y, dy, h) * w;
      for (std::size_t j = 0; j < dxs.size(); ++j) {
        const auto want = static_cast<SiteIndex>(row + column[j]);
        if (lat.neighbor(s, {dxs[j], dy}) != want) {
          return "neighbor(" + std::to_string(s) + ", {" + std::to_string(dxs[j]) + ", " +
                 std::to_string(dy) + "}) != " + std::to_string(want);
        }
      }
    }
  }
  return "";
}

/// Every offset with |d| <= 2 * extent + 1.
std::vector<std::int32_t> every_offset(std::int32_t extent) {
  std::vector<std::int32_t> out;
  for (std::int32_t d = -2 * extent - 1; d <= 2 * extent + 1; ++d) out.push_back(d);
  return out;
}

/// Offsets around each multiple of the extent up to 2 * extent + 1, kept
/// only where coordinate + offset still fits an int32_t.
std::vector<std::int32_t> boundary_offsets(std::int32_t extent) {
  std::vector<std::int32_t> out;
  const std::int64_t m = extent;
  for (const std::int64_t d : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, m - 1, m,
                               m + 1, 2 * m, 2 * m + 1}) {
    for (const std::int64_t signed_d : {d, -d}) {
      if (std::abs(signed_d) + m - 1 <= std::numeric_limits<std::int32_t>::max()) {
        out.push_back(static_cast<std::int32_t>(signed_d));
      }
    }
  }
  return out;
}

TEST(LatticeAddressing, EverySiteAndOffsetMatchesTheModuloFormula) {
  const std::pair<std::int32_t, std::int32_t> shapes[] = {
      {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {5, 3}, {7, 7}, {64, 64}};
  for (const auto& [w, h] : shapes) {
    const Lattice lat(w, h);
    std::vector<SiteIndex> sites(lat.size());
    for (SiteIndex s = 0; s < lat.size(); ++s) sites[s] = s;
    EXPECT_EQ(first_mismatch(lat, sites, every_offset(w), every_offset(h)), "")
        << w << " x " << h;
  }
}

TEST(LatticeAddressing, TopSiteIndicesOfTheLargestLattices) {
  // The row is exact for every 32-bit index: the 1000 highest sites and a
  // stride sample of lattices at or near 2^32 - 1 sites, including a width
  // far from a power of two and widths at both extremes.
  const std::pair<std::int32_t, std::int32_t> shapes[] = {
      {65536, 65535}, {65535, 65537}, {3, 1431655765}, {2147483647, 2}, {1, 2147483647}};
  for (const auto& [w, h] : shapes) {
    const Lattice lat(w, h);
    std::vector<SiteIndex> sites;
    for (SiteIndex k = 1; k <= 1000; ++k) sites.push_back(lat.size() - k);
    for (std::uint64_t k = 0; k < 997; ++k) {
      sites.push_back(static_cast<SiteIndex>(k * (lat.size() - 1000) / 997));
    }
    EXPECT_EQ(first_mismatch(lat, sites, boundary_offsets(w), boundary_offsets(h)), "")
        << w << " x " << h;
  }
}

class LatticeSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LatticeSizes, EverySiteHasFourDistinctVonNeumannNeighborsWhenBigEnough) {
  const auto [w, h] = GetParam();
  const Lattice lat(w, h);
  for (SiteIndex s = 0; s < lat.size(); ++s) {
    const auto ns = lat.neighbors(s, Lattice::von_neumann_offsets());
    for (const SiteIndex n : ns) {
      EXPECT_LT(n, lat.size());
      if (w >= 2 && h >= 2) {
        EXPECT_NE(n, s);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LatticeSizes,
                         ::testing::Values(std::pair{2, 2}, std::pair{3, 7},
                                           std::pair{8, 2}, std::pair{16, 16},
                                           std::pair{5, 1}));

}  // namespace
}  // namespace casurf
