// The dual-path determinism contract (docs/ALGORITHMS.md): engaging the
// batched bitplane trial path must not change a single bit of any
// trajectory — same configuration, same clock, same counters, step for
// step — across every algorithm, chunk policy, thread count, and model.
// These tests run scalar and fast simulators in lockstep and compare after
// every MC step, so a divergence pinpoints the first step that differs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ca/fastpath.hpp"
#include "ca/lpndca.hpp"
#include "ca/pndca.hpp"
#include "ca/tpndca.hpp"
#include "core/audit.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "models/ising.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "obs/metrics.hpp"
#include "obs/spatial.hpp"
#include "parallel/parallel_pndca.hpp"
#include "partition/coloring.hpp"
#include "partition/type_partition.hpp"

namespace casurf {
namespace {

void expect_lockstep(Simulator& scalar, Simulator& fast, int steps) {
  for (int i = 0; i < steps; ++i) {
    scalar.mc_step();
    fast.mc_step();
    ASSERT_EQ(scalar.time(), fast.time()) << "clock diverged at step " << i;
    ASSERT_EQ(scalar.counters().trials, fast.counters().trials) << "step " << i;
    ASSERT_EQ(scalar.counters().executed, fast.counters().executed)
        << "step " << i;
    const auto a = scalar.configuration().raw();
    const auto b = fast.configuration().raw();
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "configuration diverged at step " << i;
  }
}

struct Sweep {
  Algorithm algorithm;
  unsigned threads;
  const char* tag;
};

class FastVsScalar : public ::testing::TestWithParam<Sweep> {};

TEST_P(FastVsScalar, ZgbLockstep) {
  const Sweep p = GetParam();
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Configuration init(Lattice(48, 48), 3, zgb.vacant);
  SimulationOptions opt;
  opt.algorithm = p.algorithm;
  opt.seed = 97;
  opt.threads = p.threads;
  opt.l_trials = 8;
  auto scalar = make_simulator(zgb.model, init, opt);
  opt.fast_path = true;
  auto fast = make_simulator(zgb.model, init, opt);
  const bool has_fast = p.algorithm == Algorithm::kPndca ||
                        p.algorithm == Algorithm::kLPndca ||
                        p.algorithm == Algorithm::kTPndca ||
                        p.algorithm == Algorithm::kParallelPndca;
  EXPECT_EQ(fast->fast_path_active(), has_fast) << p.tag;
  EXPECT_FALSE(scalar->fast_path_active());
  expect_lockstep(*scalar, *fast, 30);
}

TEST_P(FastVsScalar, Pt100Lockstep) {
  const Sweep p = GetParam();
  auto pt = models::make_pt100();
  const Configuration init(Lattice(30, 30), pt.model.species().size(), pt.hex_vac);
  SimulationOptions opt;
  opt.algorithm = p.algorithm;
  opt.seed = 5;
  opt.threads = p.threads;
  auto scalar = make_simulator(pt.model, init, opt);
  opt.fast_path = true;
  auto fast = make_simulator(pt.model, init, opt);
  expect_lockstep(*scalar, *fast, 15);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, FastVsScalar,
    ::testing::Values(Sweep{Algorithm::kRsm, 1, "rsm"},
                      Sweep{Algorithm::kVssm, 1, "vssm"},
                      Sweep{Algorithm::kFrm, 1, "frm"},
                      Sweep{Algorithm::kNdca, 1, "ndca"},
                      Sweep{Algorithm::kPndca, 1, "pndca"},
                      Sweep{Algorithm::kLPndca, 1, "lpndca"},
                      Sweep{Algorithm::kTPndca, 1, "tpndca"},
                      Sweep{Algorithm::kParallelPndca, 2, "parallel2"},
                      Sweep{Algorithm::kParallelPndca, 7, "parallel7"}),
    [](const auto& info) { return info.param.tag; });

TEST(FastPath, PndcaAllChunkPolicies) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 10.0));
  const Configuration init(Lattice(40, 40), 3, zgb.vacant);
  for (const ChunkPolicy policy :
       {ChunkPolicy::kInOrder, ChunkPolicy::kRandomOrder,
        ChunkPolicy::kRandomWithReplacement, ChunkPolicy::kRateWeighted}) {
    SimulationOptions opt;
    opt.algorithm = Algorithm::kPndca;
    opt.chunk_policy = policy;
    opt.seed = 31;
    auto scalar = make_simulator(zgb.model, init, opt);
    opt.fast_path = true;
    auto fast = make_simulator(zgb.model, init, opt);
    ASSERT_TRUE(fast->fast_path_active());
    expect_lockstep(*scalar, *fast, 25);
  }
}

TEST(FastPath, IsingSevenThreadsLockstep) {
  auto ising = models::make_ising(0.7);
  Configuration init(Lattice(40, 40), 2, 0);
  for (SiteIndex s = 0; s < init.size(); s += 3) init.set(s, 1);
  SimulationOptions opt;
  opt.algorithm = Algorithm::kParallelPndca;
  opt.threads = 7;
  opt.seed = 1234;
  auto scalar = make_simulator(ising.model, init, opt);
  opt.fast_path = true;
  auto fast = make_simulator(ising.model, init, opt);
  expect_lockstep(*scalar, *fast, 20);
}

TEST(FastPath, LPndcaRateWeightedLockstep) {
  // The fast batch feeds the same incremental rate cache the scalar loop
  // does; rate-weighted chunk selection must see identical counts.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  Configuration init(Lattice(36, 36), 3, zgb.vacant);
  const Partition p = make_partition(init.lattice(), zgb.model);
  LPndcaSimulator scalar(zgb.model, init, p, 77, 16, TimeMode::kStochastic,
                         ChunkWeighting::kRateWeighted);
  LPndcaSimulator fast(zgb.model, init, p, 77, 16, TimeMode::kStochastic,
                       ChunkWeighting::kRateWeighted);
  EXPECT_TRUE(fast.set_fast_path(true));
  expect_lockstep(scalar, fast, 25);
}

TEST(FastPath, TPndcaRateWeightedLockstep) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 10.0));
  Configuration init(Lattice(32, 32), 3, zgb.vacant);
  auto subsets = make_type_partition(init.lattice(), zgb.model);
  TPndcaSimulator scalar(zgb.model, init, subsets, 19, 0,
                         ChunkWeighting::kRateWeighted);
  TPndcaSimulator fast(zgb.model, init, subsets, 19, 0,
                       ChunkWeighting::kRateWeighted);
  EXPECT_TRUE(fast.set_fast_path(true));
  expect_lockstep(scalar, fast, 30);
}

TEST(FastPath, FallsBackWhenPartitionViolatesNonOverlap) {
  // A single-chunk "partition" puts conflicting anchors in the same batch;
  // the runtime gate must refuse and keep the scalar reference loop, with
  // an unchanged trajectory.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Configuration init(Lattice(24, 24), 3, zgb.vacant);
  PndcaSimulator scalar(zgb.model, init,
                        {Partition::single_chunk(init.lattice())}, 7);
  PndcaSimulator fast(zgb.model, init,
                      {Partition::single_chunk(init.lattice())}, 7);
  EXPECT_FALSE(fast.set_fast_path(true));
  EXPECT_FALSE(fast.fast_path_active());
  expect_lockstep(scalar, fast, 10);
}

TEST(FastPath, DisengagingRestoresScalarLoop) {
  auto zgb = models::make_zgb();
  const Configuration init(Lattice(24, 24), 3, zgb.vacant);
  SimulationOptions opt;
  opt.algorithm = Algorithm::kPndca;
  opt.fast_path = true;
  auto sim = make_simulator(zgb.model, init, opt);
  EXPECT_TRUE(sim->fast_path_active());
  EXPECT_FALSE(sim->set_fast_path(false));
  EXPECT_FALSE(sim->fast_path_active());
  opt.fast_path = false;
  auto scalar = make_simulator(zgb.model, init, opt);
  expect_lockstep(*scalar, *sim, 10);
}

TEST(FastPath, CheckpointRoundTripStaysInLockstep) {
  // Planes are derived state: a restore rebuilds them from the restored
  // configuration, after which the fast run must still track the scalar
  // reference bit for bit.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Configuration init(Lattice(32, 32), 3, zgb.vacant);
  SimulationOptions opt;
  opt.algorithm = Algorithm::kPndca;
  opt.seed = 44;
  auto scalar = make_simulator(zgb.model, init, opt);
  opt.fast_path = true;
  auto fast = make_simulator(zgb.model, init, opt);
  expect_lockstep(*scalar, *fast, 10);

  StateWriter w;
  fast->save_state(w);
  // Same construction parameters, as the checkpoint contract requires (the
  // CLI rebuilds from identical options before restoring).
  auto resumed = make_simulator(zgb.model, init, opt);
  StateReader r(w.buffer());
  resumed->restore_state(r);
  expect_lockstep(*scalar, *resumed, 15);
}

TEST(FastPath, AuditIsCleanWhileActive) {
  auto pt = models::make_pt100();
  const Configuration init(Lattice(24, 24), pt.model.species().size(),
                           pt.hex_vac);
  SimulationOptions opt;
  opt.algorithm = Algorithm::kPndca;
  opt.fast_path = true;
  auto sim = make_simulator(pt.model, init, opt);
  sim->advance_to(2.0);
  AuditReport report;
  sim->audit_derived_state(report, /*repair=*/false);
  EXPECT_TRUE(report.issues.empty()) << report.to_string();
}

TEST(FastPath, AuditDetectsAndRepairsStalePlanes) {
  auto zgb = models::make_zgb();
  const Configuration init(Lattice(20, 20), 3, zgb.vacant);
  SimulationOptions opt;
  opt.algorithm = Algorithm::kPndca;
  opt.fast_path = true;
  auto sim = make_simulator(zgb.model, init, opt);
  auto* pndca = dynamic_cast<PndcaSimulator*>(sim.get());
  ASSERT_NE(pndca, nullptr);
  if (!pndca->fast_path_active()) GTEST_SKIP() << "built without the fast path";
  sim->advance_to(1.0);
  // Corrupt one plane bit behind the simulator's back, then audit.
  Configuration other = sim->configuration();
  const Species cur = other.get(0);
  other.set(0, static_cast<Species>((cur + 1) % 3));
  pndca->fast_planes_for_test()->resync_site(other, 0);
  AuditReport report;
  sim->audit_derived_state(report, /*repair=*/true);
  EXPECT_FALSE(report.issues.empty());
  AuditReport clean;
  sim->audit_derived_state(clean, /*repair=*/false);
  EXPECT_TRUE(clean.issues.empty()) << clean.to_string();
}

TEST(FastPath, ProbesDoNotPerturbTheFastTrajectory) {
  // Metrics registry + spatial map attached to the FAST run only; the
  // scalar run stays bare. Identical trajectories prove the probes read
  // without perturbing (the same guarantee the scalar path already makes).
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Configuration init(Lattice(32, 32), 3, zgb.vacant);
  SimulationOptions opt;
  opt.algorithm = Algorithm::kLPndca;
  opt.l_trials = 32;
  opt.seed = 13;
  auto scalar = make_simulator(zgb.model, init, opt);
  opt.fast_path = true;
  auto fast = make_simulator(zgb.model, init, opt);
  obs::MetricsRegistry registry;
  obs::SpatialMap map(init.size());
  fast->attach({&registry, nullptr, &map});
  expect_lockstep(*scalar, *fast, 20);
  if (fast->fast_path_active()) {
    std::uint64_t attempts = 0;
    for (SiteIndex s = 0; s < init.size(); ++s) attempts += map.attempts(s);
    EXPECT_EQ(attempts, fast->counters().trials);
  }
}

}  // namespace
}  // namespace casurf
