#include "partition/coloring.hpp"

#include <gtest/gtest.h>

#include "models/diffusion.hpp"
#include "models/ising.hpp"
#include "models/monomer_monomer.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "partition_reference.hpp"

namespace casurf {
namespace {

TEST(FindLinearForm, ZgbOn100x100FindsFiveChunks) {
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  const auto form = find_linear_form(Lattice(100, 100), offsets);
  ASSERT_TRUE(form.has_value());
  EXPECT_EQ(form->m, 5);  // the paper's optimum (Fig 4)
  const Partition p = Partition::linear_form(Lattice(100, 100), form->a, form->b, form->m);
  EXPECT_TRUE(verify_partition(p, offsets));
}

TEST(FindLinearForm, EmptyOffsetsIsTrivial) {
  const auto form = find_linear_form(Lattice(8, 8), {});
  ASSERT_TRUE(form.has_value());
  EXPECT_EQ(form->m, 1);
}

TEST(FindLinearForm, SingleBondNeedsTwoChunks) {
  const auto form = find_linear_form(Lattice(8, 8), {{1, 0}, {-1, 0}});
  ASSERT_TRUE(form.has_value());
  EXPECT_EQ(form->m, 2);
}

TEST(FindLinearForm, RespectsSeamConstraint) {
  // On a 7 x 7 lattice no m = 5 linear form is periodic-consistent; the
  // search must skip to a larger m (or fail), never return a broken form.
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  const auto form = find_linear_form(Lattice(7, 7), offsets);
  if (form) {
    const Partition p =
        Partition::linear_form(Lattice(7, 7), form->a, form->b, form->m);
    EXPECT_TRUE(verify_partition(p, offsets));
    EXPECT_EQ(form->m % 7, 0);  // only multiples of 7 divide a*7 for a != 0
  }
}

TEST(FindLinearForm, WidePrimeLatticeHasNoFormAndNoOverflow) {
  // The width is prime and above 64, so no m <= 64 divides a * width for
  // a != 0: the search runs through every m, forming a * width up to
  // 63 * 39999983, past INT32_MAX. The lattice allocates nothing per site.
  const std::vector<Vec2> offsets = {{1, 0}, {-1, 0}, {2, 0}, {-2, 0}};
  EXPECT_FALSE(find_linear_form(Lattice(39999983, 1), offsets).has_value());
}

TEST(GreedyColoring, ValidForZgbOnAwkwardSizes) {
  auto zgb = models::make_zgb();
  const auto offsets = conflict_offsets(zgb.model);
  for (const auto& [w, h] : {std::pair{7, 7}, {9, 11}, {13, 6}, {10, 10}}) {
    const Partition p = greedy_coloring(Lattice(w, h), offsets);
    EXPECT_TRUE(verify_partition(p, offsets)) << w << "x" << h;
    // Never more chunks than degree + 1.
    EXPECT_LE(p.num_chunks(), offsets.size() + 1);
  }
}

TEST(GreedyColoring, EmptyOffsetsGiveOneChunk) {
  const Partition p = greedy_coloring(Lattice(5, 5), {});
  EXPECT_EQ(p.num_chunks(), 1u);
}

TEST(ChunkLowerBound, VonNeumannCliqueIsFive) {
  auto zgb = models::make_zgb();
  EXPECT_EQ(chunk_lower_bound(conflict_offsets(zgb.model)), 5u);
}

TEST(ChunkLowerBound, SingleBondIsTwo) {
  EXPECT_EQ(chunk_lower_bound({{1, 0}, {-1, 0}}), 2u);
}

TEST(MakePartition, ZgbIsOptimalFiveChunks) {
  auto zgb = models::make_zgb();
  const Partition p = make_partition(Lattice(20, 20), zgb.model);
  EXPECT_EQ(p.num_chunks(), 5u);
  EXPECT_TRUE(verify_partition(p, conflict_offsets(zgb.model)));
  // Matches the clique lower bound: provably optimal.
  EXPECT_EQ(p.num_chunks(), chunk_lower_bound(conflict_offsets(zgb.model)));
}

TEST(MakePartition, FallsBackToGreedyOnAwkwardLattice) {
  auto zgb = models::make_zgb();
  const Partition p = make_partition(Lattice(7, 9), zgb.model);
  EXPECT_TRUE(verify_partition(p, conflict_offsets(zgb.model)));
}

class ModelPartitionSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ModelPartitionSweep, AllBundledModelsGetValidPartitions) {
  const auto [w, h] = GetParam();
  const Lattice lat(w, h);
  {
    auto m = models::make_zgb();
    EXPECT_TRUE(verify_partition(make_partition(lat, m.model),
                                 conflict_offsets(m.model)));
  }
  {
    auto m = models::make_diffusion();
    EXPECT_TRUE(verify_partition(make_partition(lat, m.model),
                                 conflict_offsets(m.model)));
  }
  {
    auto m = models::make_pt100();
    EXPECT_TRUE(verify_partition(make_partition(lat, m.model),
                                 conflict_offsets(m.model)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ModelPartitionSweep,
                         ::testing::Values(std::pair{10, 10}, std::pair{15, 10},
                                           std::pair{7, 7}, std::pair{25, 25}));

TEST(MakePartition, TinyLatticesStillGetValidPartitions) {
  // On a 2x2 torus with conflict radius 2, every pair of sites conflicts
  // (wrap-around), so only singletons work; the machinery must discover
  // that rather than produce an invalid coloring.
  auto zgb = models::make_zgb();
  for (const auto& [w, h] : {std::pair{2, 2}, {3, 3}, {4, 2}, {2, 5}}) {
    const Lattice lat(w, h);
    const Partition p = make_partition(lat, zgb.model);
    EXPECT_TRUE(verify_partition(p, conflict_offsets(zgb.model))) << w << "x" << h;
  }
  const Partition tiny = make_partition(Lattice(2, 2), zgb.model);
  EXPECT_EQ(tiny.num_chunks(), 4u);  // all-pairs conflicts: singletons
}

TEST(MakePartition, OneDimensionalLattices) {
  auto sf = models::make_single_file(1.0);
  for (const std::int32_t len : {5, 8, 16, 31}) {
    const Lattice lat(len, 1);
    const Partition p = make_partition(lat, sf.model);
    EXPECT_TRUE(verify_partition(p, conflict_offsets(sf.model))) << len;
    EXPECT_LE(p.num_chunks(), 6u) << len;
  }
}

TEST(MakePartition, ReadWritePolicyNeverNeedsMoreChunks) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 20);
  const Partition full = make_partition(lat, zgb.model, ConflictPolicy::kFullNeighborhood);
  const Partition rw = make_partition(lat, zgb.model, ConflictPolicy::kReadWrite);
  EXPECT_LE(rw.num_chunks(), full.num_chunks());
  EXPECT_TRUE(verify_partition(rw, conflict_offsets(zgb.model, ConflictPolicy::kReadWrite)));
}

// make_partition takes an optimal linear form without running the greedy
// search; the partition must be the one the greedy-then-compare selection
// picked, site for site, for every bundled model under both policies.
std::vector<std::pair<const char*, ReactionModel>> bundled_models() {
  return {{"zgb", models::make_zgb().model},
          {"pt100", models::make_pt100().model},
          {"diffusion", models::make_diffusion().model},
          {"single_file", models::make_single_file().model},
          {"ising", models::make_ising(0.5).model},
          {"monomer_monomer", models::make_monomer_monomer().model}};
}

void expect_reference_selection(const Lattice& lat, const ReactionModel& model,
                                const char* name) {
  for (const ConflictPolicy policy :
       {ConflictPolicy::kFullNeighborhood, ConflictPolicy::kReadWrite}) {
    const Partition got = make_partition(lat, model, policy);
    const Partition want =
        reference::make_partition(lat, conflict_offsets(model, policy));
    ASSERT_EQ(got.chunk_of_sites(), want.chunk_of_sites())
        << name << " on " << lat.width() << "x" << lat.height() << ", "
        << (policy == ConflictPolicy::kReadWrite ? "read/write" : "full") << " policy";
  }
}

TEST(MakePartition, EqualsTheGreedyThenCompareSelectionOnSmallLattices) {
  for (const auto& [name, model] : bundled_models()) {
    for (std::int32_t w = 1; w <= 24; ++w) {
      for (std::int32_t h = 1; h <= 24; ++h) {
        expect_reference_selection(Lattice(w, h), model, name);
      }
    }
  }
}

TEST(MakePartition, EqualsTheGreedyThenCompareSelectionOnLedgerSizes) {
  // At 500 x 500 the five-chunk form meets the clique bound and greedy is
  // skipped; at 512 x 512 the smallest seam-consistent form has m = 8 > 5,
  // so greedy still runs and the comparison decides.
  for (const auto& [name, model] : bundled_models()) {
    expect_reference_selection(Lattice(500, 500), model, name);
    expect_reference_selection(Lattice(512, 512), model, name);
  }
  const auto zgb = models::make_zgb();
  EXPECT_EQ(make_partition(Lattice(500, 500), zgb.model).num_chunks(), 5u);
  const auto form = find_linear_form(Lattice(512, 512), conflict_offsets(zgb.model));
  ASSERT_TRUE(form.has_value());
  EXPECT_EQ(form->m, 8);
}

}  // namespace
}  // namespace casurf
