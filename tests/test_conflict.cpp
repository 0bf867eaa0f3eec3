#include "partition/conflict.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "models/diffusion.hpp"
#include "models/zgb.hpp"
#include "partition/partition.hpp"
#include "partition_reference.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

std::set<Vec2> as_set(const std::vector<Vec2>& v) { return {v.begin(), v.end()}; }

std::set<Vec2> l1_ball_without_origin(int radius) {
  std::set<Vec2> out;
  for (int x = -radius; x <= radius; ++x) {
    for (int y = -radius; y <= radius; ++y) {
      if ((x != 0 || y != 0) && std::abs(x) + std::abs(y) <= radius) {
        out.insert(Vec2{x, y});
      }
    }
  }
  return out;
}

TEST(ConflictOffsets, SingleSiteModelHasNone) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("flip", 1.0, {exact({0, 0}, 0, 1)}));
  EXPECT_TRUE(conflict_offsets(m).empty());
}

TEST(ConflictOffsets, ZgbIsL1BallRadiusTwo) {
  // Paper Fig 5: all reaction patterns are von Neumann pairs, so anchors
  // conflict exactly within L1 distance 2 — 12 offsets.
  auto zgb = models::make_zgb();
  const auto offsets = as_set(conflict_offsets(zgb.model));
  EXPECT_EQ(offsets, l1_ball_without_origin(2));
  EXPECT_EQ(offsets.size(), 12u);
}

TEST(ConflictOffsets, DiffusionSameAsZgb) {
  auto diff = models::make_diffusion();
  EXPECT_EQ(as_set(conflict_offsets(diff.model)), l1_ball_without_origin(2));
}

TEST(ConflictOffsets, SymmetricByConstruction) {
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  const auto set = as_set(offsets);
  for (const Vec2 d : offsets) EXPECT_TRUE(set.contains(-d));
}

TEST(ConflictOffsets, ReadWritePolicyIsSubsetOfFull) {
  // A model with a read-only neighbor precondition: the relaxed policy must
  // produce no more offsets than the full-neighborhood rule.
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("assisted", 1.0,
                     {exact({0, 0}, 0, 1), require({1, 0}, species_bit(1)),
                      require({-1, 0}, species_bit(1))}));
  const auto full = as_set(conflict_offsets(m, ConflictPolicy::kFullNeighborhood));
  const auto rw = as_set(conflict_offsets(m, ConflictPolicy::kReadWrite));
  EXPECT_TRUE(std::ranges::includes(full, rw));
  EXPECT_LT(rw.size(), full.size());
  // The +-(2,0) offsets arise only from read/read pairs (the two
  // preconditions of anchors two apart touching the same site), so they
  // vanish under kReadWrite; the write-read overlaps at +-(1,0) remain.
  EXPECT_FALSE(rw.contains(Vec2{2, 0}));
  EXPECT_TRUE(full.contains(Vec2{2, 0}));
  EXPECT_TRUE(rw.contains(Vec2{1, 0}));
}

TEST(SelfConflictOffsets, PairTypeIsPlusMinusBond) {
  const ReactionType rt("pair", 1.0, {exact({0, 0}, 0, 1), exact({1, 0}, 0, 1)});
  EXPECT_EQ(as_set(self_conflict_offsets(rt)),
            (std::set<Vec2>{{-1, 0}, {1, 0}}));
}

TEST(SelfConflictOffsets, SingleSiteIsEmpty) {
  const ReactionType rt("one", 1.0, {exact({0, 0}, 0, 1)});
  EXPECT_TRUE(self_conflict_offsets(rt).empty());
}

TEST(VerifyPartition, Fig4FiveColoringIsValidForZgb) {
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  const Partition p = Partition::linear_form(Lattice(10, 10), 1, 3, 5);
  EXPECT_TRUE(verify_partition(p, offsets));
}

TEST(VerifyPartition, CheckerboardIsInvalidForZgb) {
  // Two chunks cannot separate L1-distance-2 conflicts: (1,1) is a
  // conflict offset but preserves checkerboard parity.
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  const Partition p = Partition::linear_form(Lattice(10, 10), 1, 1, 2);
  EXPECT_FALSE(verify_partition(p, offsets));
}

TEST(VerifyPartition, SingleChunkInvalidUnlessNoConflicts) {
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  EXPECT_FALSE(verify_partition(Partition::single_chunk(Lattice(8, 8)), offsets));
  EXPECT_TRUE(verify_partition(Partition::single_chunk(Lattice(8, 8)), {}));
}

TEST(VerifyPartition, SingletonsAlwaysValid) {
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  EXPECT_TRUE(verify_partition(Partition::singletons(Lattice(8, 8)), offsets));
}

TEST(VerifyPartition, WrapAroundConflictsDetected) {
  // Valid in the bulk but broken across the periodic seam: a 5-coloring on
  // a width-6 lattice (1*6 % 5 != 0 — construct manually by truncating).
  const Lattice lat(6, 5);
  std::vector<ChunkId> assign(lat.size());
  for (std::int32_t y = 0; y < 5; ++y) {
    for (std::int32_t x = 0; x < 6; ++x) {
      assign[lat.index({x, y})] = static_cast<ChunkId>((x + 3 * y) % 5);
    }
  }
  const Partition p(lat, std::move(assign));
  auto zgb = models::make_zgb();
  EXPECT_FALSE(verify_partition(p, conflict_offsets(zgb.model)));
}

// verify_partition compares whole rows shifted by each wrapped offset; it
// must give the per-site answer on every small torus, for offsets shorter
// and longer than the lattice and for offsets that wrap to (0, 0).
TEST(VerifyPartition, MatchesThePerSiteReferenceOnRandomPartitions) {
  Xoshiro256 rng(17);
  const auto draw = [&](std::int32_t lo, std::int32_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int32_t>(uniform_below(rng, span));
  };
  int valid = 0;
  int invalid = 0;
  for (std::int32_t w = 1; w <= 9; ++w) {
    for (std::int32_t h = 1; h <= 9; ++h) {
      const Lattice lat(w, h);
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<Vec2> offsets;
        const int n = draw(0, 6);
        for (int k = 0; k < n; ++k) {
          switch (draw(0, 2)) {
            case 0: offsets.push_back({draw(-2, 2), draw(-2, 2)}); break;
            case 1: offsets.push_back({draw(-25, 25), draw(-25, 25)}); break;
            default: offsets.push_back({w * draw(-3, 3), h * draw(-3, 3)}); break;
          }
        }
        // Dense chunk ids: the first k sites name chunks 0..k-1, the rest
        // draw among them. Half the rows use the greedy coloring of the
        // symmetrized offsets instead, so valid partitions occur too.
        std::vector<ChunkId> assign(lat.size());
        const auto n_sites = static_cast<std::int32_t>(lat.size());
        const auto k = static_cast<SiteIndex>(draw(1, n_sites));
        for (SiteIndex s = 0; s < lat.size(); ++s) {
          assign[s] = s < k ? s : static_cast<ChunkId>(uniform_below(rng, k));
        }
        std::vector<Vec2> symmetric = offsets;
        for (const Vec2 d : offsets) symmetric.push_back(-d);
        const Partition p = trial % 2 == 0 ? Partition(lat, std::move(assign))
                                           : reference::greedy(lat, symmetric);
        const bool want = reference::verify(p, offsets);
        ASSERT_EQ(verify_partition(p, offsets), want)
            << w << "x" << h << ", trial " << trial;
        ++(want ? valid : invalid);
      }
    }
  }
  EXPECT_GT(valid, 100);
  EXPECT_GT(invalid, 100);
}

}  // namespace
}  // namespace casurf
