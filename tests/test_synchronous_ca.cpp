#include "ca/synchronous_ca.hpp"

#include <gtest/gtest.h>

namespace casurf {
namespace {

// The standard CA of paper section 1: rules that ignore the step index.

TEST(DeterministicCa, NullRuleThrows) {
  EXPECT_THROW(SynchronousCA(Configuration(Lattice(3, 3), 2, 0), nullptr),
               std::invalid_argument);
}

TEST(DeterministicCa, ShiftRuleProvesSynchronousUpdate) {
  // new(s) = old(s - (1,0)): a pure shift. Sequential in-place update would
  // smear a single seed across the whole row; a synchronous update moves it
  // exactly one cell per step.
  Configuration cfg(Lattice(8, 1), 2, 0);
  cfg.set(Vec2{2, 0}, 1);
  SynchronousCA ca(cfg, [](const Configuration& c, SiteIndex s, std::uint64_t) {
    return c.get(c.lattice().coord(s) - Vec2{1, 0});
  });
  ca.step();
  EXPECT_EQ(ca.configuration().get(Vec2{3, 0}), 1);
  EXPECT_EQ(ca.configuration().count(1), 1u);
  ca.run(5);
  EXPECT_EQ(ca.configuration().get(Vec2{0, 0}), 1);  // wrapped around
  EXPECT_EQ(ca.steps_done(), 6u);
}

TEST(DeterministicCa, MajorityRuleReachesFixedPoint) {
  // 1D majority-of-three: alternating stripes of length >= 2 are stable.
  Configuration cfg(Lattice(12, 1), 2, 0);
  for (std::int32_t x = 0; x < 6; ++x) cfg.set(Vec2{x, 0}, 1);
  const CaRule majority = [](const Configuration& c, SiteIndex s,
                             std::uint64_t) -> Species {
    const Vec2 p = c.lattice().coord(s);
    const int sum = c.get(p - Vec2{1, 0}) + c.get(p) + c.get(p + Vec2{1, 0});
    return sum >= 2 ? 1 : 0;
  };
  SynchronousCA ca(cfg, majority);
  ca.step();
  const Configuration after_one = ca.configuration();
  ca.step();
  EXPECT_EQ(ca.configuration(), after_one);  // fixed point
}

TEST(DeterministicCa, AllSitesUpdatedEveryStep) {
  // Rule "increment mod 3" touches every site each step.
  Configuration cfg(Lattice(4, 4), 3, 0);
  SynchronousCA ca(cfg, [](const Configuration& c, SiteIndex s, std::uint64_t) {
    return static_cast<Species>((c.get(s) + 1) % 3);
  });
  ca.step();
  for (SiteIndex s = 0; s < ca.configuration().size(); ++s) {
    EXPECT_EQ(ca.configuration().get(s), 1);
  }
  ca.run(2);
  for (SiteIndex s = 0; s < ca.configuration().size(); ++s) {
    EXPECT_EQ(ca.configuration().get(s), 0);
  }
}

TEST(DeterministicCa, TwoDimensionalNeighborhoodRule) {
  // "Becomes occupied if any von Neumann neighbor is occupied" — one seed
  // grows as a diamond (L1 ball), the CA analogue of the paper's Fig 3 rule
  // inverted.
  Configuration cfg(Lattice(9, 9), 2, 0);
  cfg.set(Vec2{4, 4}, 1);
  const CaRule grow = [](const Configuration& c, SiteIndex s, std::uint64_t) -> Species {
    if (c.get(s) == 1) return 1;
    const Vec2 p = c.lattice().coord(s);
    for (const Vec2 d : Lattice::von_neumann_offsets()) {
      if (c.get(p + d) == 1) return 1;
    }
    return 0;
  };
  SynchronousCA ca(cfg, grow);
  ca.run(2);
  // After 2 steps, exactly the sites within L1 distance 2: 1+4+8 = 13.
  EXPECT_EQ(ca.configuration().count(1), 13u);
  EXPECT_EQ(ca.configuration().get(Vec2{4, 2}), 1);
  EXPECT_EQ(ca.configuration().get(Vec2{6, 4}), 1);
  EXPECT_EQ(ca.configuration().get(Vec2{6, 6}), 0);  // L1 distance 4
}

// The block CA of paper section 5 (Fig 3): the Fig 3 rule cycles through
// its block phases by step index.

/// The paper's Fig 3 phases on 9 sites in one dimension: blocks of three,
/// the second phase shifted so the blocks are {0,7,8},{1,2,3},{4,5,6}.
std::vector<Partition> fig3_phases(const Lattice& lat) {
  return {Partition::blocks(lat, 3, 1), Partition::blocks(lat, 3, 1, {1, 0})};
}

SynchronousCA make_fig3(const std::vector<Species>& initial) {
  const Lattice lat(9, 1);
  Configuration cfg(lat, 2, 0);
  for (std::int32_t x = 0; x < 9; ++x) cfg.set(Vec2{x, 0}, initial[x]);
  return SynchronousCA(std::move(cfg), fig3_zero_spreads_rule(fig3_phases(lat)));
}

std::vector<Species> state_of(const SynchronousCA& ca) {
  std::vector<Species> v;
  for (SiteIndex s = 0; s < ca.configuration().size(); ++s) {
    v.push_back(ca.configuration().get(s));
  }
  return v;
}

TEST(Bca, Fig3FirstStepMatchesPaper) {
  // Paper Fig 3, first transition:
  //   0 1 1 | 1 1 1 | 0 1 1   ->   0 0 1 | 1 1 1 | 0 0 1
  SynchronousCA ca = make_fig3({0, 1, 1, 1, 1, 1, 0, 1, 1});
  ca.step();
  EXPECT_EQ(state_of(ca), (std::vector<Species>{0, 0, 1, 1, 1, 1, 0, 0, 1}));
}

TEST(Bca, Fig3SecondStepUsesShiftedBlocks) {
  // Second transition with blocks {0,7,8}, {1,2,3}, {4,5,6}: the zeros
  // spread across the old block edges.
  SynchronousCA ca = make_fig3({0, 1, 1, 1, 1, 1, 0, 1, 1});
  ca.run(2);
  EXPECT_EQ(state_of(ca), (std::vector<Species>{0, 0, 0, 1, 1, 0, 0, 0, 0}));
}

TEST(Bca, ZeroNeverSpreadsAcrossBlockEdgeWithinOneStep) {
  // Within a single phase, a 0 at a block edge cannot affect the adjacent
  // block — the defining BCA restriction.
  SynchronousCA ca = make_fig3({1, 1, 0, 1, 1, 1, 1, 1, 1});
  ca.step();
  // Block {0,1,2}: site 1 sees the 0. Block {3,4,5}: site 3's neighbor 2 is
  // in the other block, so site 3 must stay 1.
  EXPECT_EQ(state_of(ca), (std::vector<Species>{1, 0, 0, 1, 1, 1, 1, 1, 1}));
}

TEST(Bca, PhaseAlternation) {
  // Site 0 shares a block with site 8 only in the second phase (the wrapped
  // block {7, 8, 0}), so the rule takes site 8's 0 at odd steps alone.
  const Lattice lat(9, 1);
  Configuration cfg(lat, 2, 1);
  cfg.set(Vec2{8, 0}, 0);
  const CaRule rule = fig3_zero_spreads_rule(fig3_phases(lat));
  EXPECT_EQ(rule(cfg, 0, 0), 1);  // blocks {0,1,2}{3,4,5}{6,7,8}
  EXPECT_EQ(rule(cfg, 0, 1), 0);  // blocks {1,2,3}{4,5,6}{7,8,0}
  EXPECT_EQ(rule(cfg, 0, 2), 1);  // cycles back
}

TEST(Bca, AllOnesIsFixedPoint) {
  SynchronousCA ca = make_fig3({1, 1, 1, 1, 1, 1, 1, 1, 1});
  ca.run(4);
  EXPECT_EQ(ca.configuration().count(1), 9u);
}

TEST(Bca, AllZerosIsFixedPoint) {
  SynchronousCA ca = make_fig3({0, 0, 0, 0, 0, 0, 0, 0, 0});
  ca.run(4);
  EXPECT_EQ(ca.configuration().count(0), 9u);
}

TEST(Bca, ZerosEventuallyTakeOverWithShifts) {
  // With alternating phases the zero region grows without bound: from one
  // seed the lattice reaches all-zero.
  SynchronousCA ca = make_fig3({1, 1, 1, 1, 0, 1, 1, 1, 1});
  ca.run(12);
  EXPECT_EQ(ca.configuration().count(0), 9u);
}

TEST(Bca, ValidatesConstruction) {
  const Lattice lat(9, 1);
  Configuration cfg(lat, 2, 0);
  EXPECT_THROW((void)fig3_zero_spreads_rule({}), std::invalid_argument);
  EXPECT_THROW(SynchronousCA(cfg, nullptr), std::invalid_argument);
  // A phase on another lattice is refused when the rule first meets the
  // configuration.
  SynchronousCA other_lattice(
      cfg, fig3_zero_spreads_rule({Partition::blocks(Lattice(6, 1), 3, 1)}));
  EXPECT_THROW(other_lattice.step(), std::invalid_argument);
}

}  // namespace
}  // namespace casurf
