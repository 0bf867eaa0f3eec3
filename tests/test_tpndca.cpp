#include "ca/tpndca.hpp"

#include <gtest/gtest.h>

#include "models/zgb.hpp"
#include "partition/conflict.hpp"

namespace casurf {
namespace {

TEST(TPndca, BuildsFromZgbTypePartition) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  auto subsets = make_type_partition(lat, zgb.model);
  TPndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                      std::move(subsets), 1);
  EXPECT_EQ(sim.subsets().size(), 2u);
  EXPECT_EQ(sim.sweeps_per_step(), 2u);  // both subsets have 2 chunks
  EXPECT_EQ(sim.name(), "TPNDCA");
}

TEST(TPndca, RejectsEmptySubsets) {
  auto zgb = models::make_zgb();
  EXPECT_THROW(TPndcaSimulator(zgb.model, Configuration(Lattice(4, 4), 3, zgb.vacant),
                               {}, 1),
               std::invalid_argument);
}

TEST(TPndca, StepAdvancesTimeByMeanMcStep) {
  auto zgb = models::make_zgb();  // K = 1 + 1 + 2 = 4
  const Lattice lat(10, 10);
  TPndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                      make_type_partition(lat, zgb.model), 2);
  sim.mc_step();
  EXPECT_NEAR(sim.time(), 1.0 / zgb.model.total_rate(), 1e-12);
}

TEST(TPndca, SameSeedSameTrajectory) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  TPndcaSimulator a(zgb.model, Configuration(lat, 3, zgb.vacant),
                    make_type_partition(lat, zgb.model), 3);
  TPndcaSimulator b(zgb.model, Configuration(lat, 3, zgb.vacant),
                    make_type_partition(lat, zgb.model), 3);
  for (int i = 0; i < 50; ++i) {
    a.mc_step();
    b.mc_step();
  }
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(TPndca, SweepIsConflictFreeWithinChunk) {
  // Structural property behind the algorithm: the per-subset partitions
  // must separate each member type from itself.
  auto zgb = models::make_zgb();
  const Lattice lat(12, 12);
  const auto subsets = make_type_partition(lat, zgb.model);
  for (const TypeSubset& sub : subsets) {
    for (const ReactionIndex i : sub.types) {
      const auto offsets = self_conflict_offsets(zgb.model.reaction(i));
      EXPECT_TRUE(verify_partition(sub.chunks, offsets))
          << "type " << zgb.model.reaction(i).name();
    }
  }
}

TEST(TPndca, ZgbStaysReactiveAtModerateY) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(24, 24);
  TPndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                      make_type_partition(lat, zgb.model), 4);
  for (int i = 0; i < 400; ++i) sim.mc_step();
  const double co = sim.configuration().coverage(zgb.co);
  const double o = sim.configuration().coverage(zgb.o);
  EXPECT_LE(co + o, 1.0);
  EXPECT_GT(sim.counters().executed, 0u);
}

TEST(TPndca, ExecutionCountsRoughlyMatchChannelRates) {
  // Over a long run at a steady state, the CO adsorption and CO2 formation
  // channels must balance (every adsorbed CO eventually leaves as CO2 —
  // there is no CO desorption in ZGB).
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(24, 24);
  TPndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                      make_type_partition(lat, zgb.model), 5);
  for (int i = 0; i < 2000; ++i) sim.mc_step();
  const auto& per = sim.counters().executed_per_type;
  const std::uint64_t co_ads = per[0];
  std::uint64_t co2 = 0;
  for (ReactionIndex i = 3; i < 7; ++i) co2 += per[i];
  // CO on surface = adsorbed - reacted.
  EXPECT_EQ(sim.configuration().count(zgb.co),
            co_ads - co2);
}

}  // namespace
}  // namespace casurf
