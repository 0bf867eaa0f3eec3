#include "dmc/frm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dmc_bookkeeping.hpp"
#include "models/zgb.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

TEST(Frm, InitialEnabledPairsCount) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  FrmSimulator sim(m, Configuration(Lattice(4, 4), 2, 0), 1);
  // All 16 sites vacant: adsorption enabled everywhere, desorption nowhere.
  EXPECT_EQ(sim.enabled_pairs(), 16u);
}

TEST(Frm, EventTimesAreMonotone) {
  const ReactionModel m = ads_des_model(1.0, 0.5);
  FrmSimulator sim(m, Configuration(Lattice(8, 8), 2, 0), 2);
  double last = 0;
  for (int i = 0; i < 2000; ++i) {
    sim.mc_step();
    ASSERT_GE(sim.time(), last);
    last = sim.time();
  }
}

TEST(Frm, EquilibriumCoverage) {
  const double ka = 2.0, kd = 1.0;
  const ReactionModel m = ads_des_model(ka, kd);
  FrmSimulator sim(m, Configuration(Lattice(32, 32), 2, 0), 3);
  sim.advance_to(20.0);
  double avg = 0;
  const int samples = 200;
  for (int i = 0; i < samples; ++i) {
    for (int k = 0; k < 20; ++k) sim.mc_step();
    avg += sim.configuration().coverage(1);
  }
  avg /= samples;
  EXPECT_NEAR(avg, ka / (ka + kd), 0.02);
}

TEST(Frm, StalledAbsorbingState) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  FrmSimulator sim(m, Configuration(Lattice(4, 4), 2, 0), 4);
  sim.advance_to(500.0);
  EXPECT_TRUE(sim.stalled());
  EXPECT_EQ(sim.counters().executed, 16u);
  EXPECT_GE(sim.time(), 500.0);
  EXPECT_EQ(sim.enabled_pairs(), 0u);
}

TEST(Frm, ExecutionRatioFollowsRates) {
  ReactionModel m(SpeciesSet({"A"}));
  m.add(ReactionType("r2", 2.0, {exact({0, 0}, 0, 0)}));
  m.add(ReactionType("r1", 1.0, {exact({0, 0}, 0, 0)}));
  FrmSimulator sim(m, Configuration(Lattice(5, 5), 1, 0), 5);
  for (int i = 0; i < 60000; ++i) sim.mc_step();
  const auto& per = sim.counters().executed_per_type;
  const double frac = static_cast<double>(per[0]) /
                      static_cast<double>(per[0] + per[1]);
  EXPECT_NEAR(frac, 2.0 / 3.0, 0.01);
}

// The ZGB row of the bookkeeping check; MaskShapes/FrmBookkeeping below
// runs it on every other mask shape.
TEST(Frm, EnabledPairsConsistentAfterManyEvents) {
  auto zgb = models::make_zgb();
  FrmSimulator sim(zgb.model, Configuration(Lattice(8, 8), 3, zgb.vacant), 6);
  expect_audit_clean_after_every_event(sim, 2000);
}

class FrmBookkeeping : public ::testing::TestWithParam<MaskRow> {};

TEST_P(FrmBookkeeping, AuditIsCleanAfterEveryEvent) {
  const MaskRow& row = GetParam();
  const ReactionModel model = row.make_model();
  FrmSimulator sim(model, random_configuration(model, row.width, row.height, 7), 3);
  expect_audit_clean_after_every_event(sim, 400);
  EXPECT_GT(sim.counters().executed, 0u) << "the row never left its initial state";
}

// The initial queue is built a lattice row at a time; its heap array must
// be the per-site raster build's: one time draw per enabled pair, type by
// type and site by site, each pushed as drawn.
TEST_P(FrmBookkeeping, InitialQueueIsThePerSiteRasterBuild) {
  const MaskRow& row = GetParam();
  const ReactionModel model = row.make_model();
  const Configuration cfg = random_configuration(model, row.width, row.height, 7);
  FrmSimulator sim(model, cfg, 3);
  Xoshiro256 rng(3);
  std::vector<FrmSimulator::Event> want;
  for (ReactionIndex i = 0; i < model.num_reactions(); ++i) {
    for (SiteIndex s = 0; s < cfg.size(); ++s) {
      if (!model.reaction(i).enabled(cfg, s)) continue;
      want.push_back({exponential(rng, model.reaction(i).rate()), s, i});
      std::push_heap(want.begin(), want.end());
    }
  }
  const std::vector<FrmSimulator::Event>& got = sim.queue();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].when, want[k].when) << "heap slot " << k;
    EXPECT_EQ(got[k].site, want[k].site) << "heap slot " << k;
    EXPECT_EQ(got[k].type, want[k].type) << "heap slot " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(MaskShapes, FrmBookkeeping, ::testing::ValuesIn(mask_rows()),
                         [](const auto& row) { return row.param.name; });

TEST(Frm, SameSeedSameTrajectory) {
  auto zgb = models::make_zgb();
  FrmSimulator a(zgb.model, Configuration(Lattice(8, 8), 3, zgb.vacant), 8);
  FrmSimulator b(zgb.model, Configuration(Lattice(8, 8), 3, zgb.vacant), 8);
  for (int i = 0; i < 500; ++i) {
    a.mc_step();
    b.mc_step();
  }
  EXPECT_EQ(a.configuration(), b.configuration());
  EXPECT_DOUBLE_EQ(a.time(), b.time());
}

// On the hex-vacant 500x500 Pt(100) start that casurf_run builds, one of
// the 39 types (CO_ads_hex) is enabled at every site and the rest at none.
// An index filled over every (type, site) pair would cost 39 MB of growth;
// on demand-zero pages only the one type's pages count, next to its
// 250,000 queued events.
TEST(Frm, TypesNeverEnabledCostNoResidentMemory) {
  if (const std::string why = resident_memory_unmeasurable(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const models::Pt100Model pt = models::make_pt100();
  const Configuration start(Lattice(500, 500), pt.model.species().size(), pt.hex_vac);
  const double grown_mb =
      resident_growth_mb([&] { return FrmSimulator(pt.model, start, 3); });
  EXPECT_LT(grown_mb, 20.0) << "resident set grew by " << grown_mb << " MB";
}

// The same start, one corrupted pair, and an audit that repairs it: the
// repair rebuilds through a fresh index, so it writes the pages of the
// enabled type only, as the constructor does, not every pair's.
TEST(Frm, AuditRepairTouchesOnlyEnabledPages) {
  if (const std::string why = resident_memory_unmeasurable(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const models::Pt100Model pt = models::make_pt100();
  const Configuration start(Lattice(500, 500), pt.model.species().size(), pt.hex_vac);
  FrmSimulator sim(pt.model, start, 3);
  sim.corrupt_pair_for_test(0, 0);
  AuditReport found;
  sim.audit_derived_state(found, false);
  ASSERT_FALSE(found.clean()) << "the corrupted pair passed the audit";
  const double grown_mb = resident_growth_mb([&] {
    AuditReport report;
    sim.audit_derived_state(report, true);
    return report;
  });
  EXPECT_LT(grown_mb, 8.0) << "resident set grew by " << grown_mb << " MB";
  AuditReport after;
  sim.audit_derived_state(after, false);
  EXPECT_TRUE(after.clean()) << after.to_string();
}

TEST(Frm, NameIsFrm) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  FrmSimulator sim(m, Configuration(Lattice(2, 2), 2, 0), 1);
  EXPECT_EQ(sim.name(), "FRM");
}

}  // namespace
}  // namespace casurf
