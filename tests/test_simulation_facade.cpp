#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "dmc/rsm.hpp"
#include "models/zgb.hpp"

namespace casurf {
namespace {

class AlgorithmSweep : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmSweep, BuildsAndAdvances) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  SimulationOptions opt;
  opt.algorithm = GetParam();
  opt.seed = 3;
  opt.threads = 2;
  auto sim = make_simulator(zgb.model, Configuration(Lattice(12, 12), 3, zgb.vacant), opt);
  ASSERT_NE(sim, nullptr);
  sim->advance_to(1.0);
  EXPECT_GE(sim->time(), 1.0);
  EXPECT_GT(sim->counters().trials, 0u);
  // kParallelPndca is another spelling of kPndca: the same simulator.
  EXPECT_EQ(sim->name(), GetParam() == Algorithm::kParallelPndca
                             ? algorithm_name(Algorithm::kPndca)
                             : algorithm_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(All, AlgorithmSweep,
                         ::testing::Values(Algorithm::kRsm, Algorithm::kVssm,
                                           Algorithm::kFrm, Algorithm::kNdca,
                                           Algorithm::kPndca, Algorithm::kLPndca,
                                           Algorithm::kTPndca,
                                           Algorithm::kParallelPndca));

TEST(SimulationFacade, AutoPartitionIsFiveChunksForZgb) {
  auto zgb = models::make_zgb();
  SimulationOptions opt;
  opt.algorithm = Algorithm::kPndca;
  auto sim = make_simulator(zgb.model, Configuration(Lattice(20, 20), 3, zgb.vacant), opt);
  auto* pndca = dynamic_cast<PndcaSimulator*>(sim.get());
  ASSERT_NE(pndca, nullptr);
  EXPECT_EQ(pndca->current_partition().num_chunks(), 5u);
}

// make_simulator takes no partition: a caller with its own builds the
// simulator directly.
TEST(SimulationFacade, ExplicitPartitionHonored) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 20);
  const LPndcaSimulator lp(zgb.model, Configuration(lat, 3, zgb.vacant),
                           Partition::singletons(lat), 1, 10);
  EXPECT_EQ(lp.partition().num_chunks(), 400u);
  EXPECT_EQ(lp.trials_per_batch(), 10u);
}

// PartitionedSimulator::add_slot refuses a partition of another lattice,
// naming the simulator.
TEST(SimulationFacade, WrongLatticePartitionThrows) {
  auto zgb = models::make_zgb();
  const Configuration config(Lattice(20, 20), 3, zgb.vacant);
  const Partition other = Partition::singletons(Lattice(4, 4));
  const auto expect_mismatch = [](const std::function<void()>& build, const char* name) {
    try {
      build();
      ADD_FAILURE() << name << " accepted a partition of another lattice";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(name) + ": partition lattice mismatch");
    }
  };
  expect_mismatch([&] { PndcaSimulator(zgb.model, config, {other}, 1); }, "PNDCA");
  expect_mismatch([&] { LPndcaSimulator(zgb.model, config, other, 1, 1); }, "L-PNDCA");
}

TEST(SimulationFacade, AlgorithmNamesAreUnique) {
  const Algorithm all[] = {Algorithm::kRsm,    Algorithm::kVssm,
                           Algorithm::kFrm,    Algorithm::kNdca,
                           Algorithm::kPndca,  Algorithm::kLPndca,
                           Algorithm::kTPndca, Algorithm::kParallelPndca};
  std::set<std::string> names;
  for (const Algorithm a : all) names.insert(algorithm_name(a));
  EXPECT_EQ(names.size(), std::size(all));
}

TEST(SimulationFacade, AlgorithmKeysAndThreadedPaths) {
  EXPECT_FALSE(algorithm_from_key("PNDCA").has_value());
  EXPECT_FALSE(algorithm_from_key("").has_value());
  auto zgb = models::make_zgb();
  for (const std::string key :
       {"rsm", "vssm", "frm", "ndca", "pndca", "lpndca", "tpndca", "parallel"}) {
    SCOPED_TRACE(key);
    const std::optional<Algorithm> a = algorithm_from_key(key);
    ASSERT_TRUE(a.has_value());
    // Only PNDCA, under either key, has a threaded path, and make_simulator
    // honours the thread count exactly there.
    EXPECT_EQ(has_threaded_path(*a), key == "pndca" || key == "parallel");
    SimulationOptions opt;
    opt.algorithm = *a;
    opt.threads = 3;
    auto sim = make_simulator(zgb.model, Configuration(Lattice(10, 10), 3, zgb.vacant), opt);
    const auto* pndca = dynamic_cast<const PndcaSimulator*>(sim.get());
    EXPECT_EQ(pndca != nullptr && pndca->num_threads() == 3, has_threaded_path(*a));
  }
}

TEST(SimulationFacade, TimeModePropagates) {
  auto zgb = models::make_zgb();  // K = 4
  RsmSimulator sim(zgb.model, Configuration(Lattice(10, 10), 3, zgb.vacant), 1,
                   TimeMode::kDeterministic);
  sim.mc_step();
  EXPECT_NEAR(sim.time(), 1.0 / zgb.model.total_rate(), 1e-12);
}

}  // namespace
}  // namespace casurf
