#include "parallel/domain_decomp.hpp"

#include <gtest/gtest.h>

#include "core/observer.hpp"
#include "dmc/rsm.hpp"
#include "models/zgb.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/coverage.hpp"
#include "stats/timeseries.hpp"

namespace casurf {
namespace {

TEST(DomainDecomp, ValidatesParameters) {
  auto zgb = models::make_zgb();
  const Configuration cfg(Lattice(20, 20), 3, zgb.vacant);
  DomainDecompParams params;
  params.ranks = 0;
  EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument);
  params.ranks = 3;  // 20 % 3 != 0
  EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument);
  params.ranks = 5;  // strips of width 4 <= 4r with r = 1
  EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument);
}

TEST(DomainDecomp, SingleRankMatchesRsmKinetics) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(24, 24);
  const Configuration initial(lat, 3, zgb.vacant);

  DomainDecompParams params;
  params.ranks = 1;
  params.seed = 3;
  params.t_end = 8.0;
  params.sample_dt = 0.5;
  const auto dd = run_domain_decomp(zgb.model, initial, params);

  RsmSimulator rsm(zgb.model, initial, 17);
  CoverageRecorder rec({zgb.o});
  run_sampled(rsm, 8.0, 0.5, rec);

  const TimeSeries dd_o(dd.times, dd.coverage[zgb.o]);
  EXPECT_LT(mean_abs_difference(dd_o, rec.series(zgb.o)), 0.06);
  EXPECT_EQ(dd.comm.messages, 0u);  // one rank: no point-to-point traffic
}

TEST(DomainDecomp, TwoAndFourRanksMatchRsmKinetics) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(24, 24);
  const Configuration initial(lat, 3, zgb.vacant);

  RsmSimulator rsm(zgb.model, initial, 21);
  CoverageRecorder rec({zgb.o});
  run_sampled(rsm, 8.0, 0.5, rec);

  for (const int ranks : {2, 4}) {
    DomainDecompParams params;
    params.ranks = ranks;
    params.seed = 11 + ranks;
    params.t_end = 8.0;
    params.sample_dt = 0.5;
    const auto dd = run_domain_decomp(zgb.model, initial, params);
    const TimeSeries dd_o(dd.times, dd.coverage[zgb.o]);
    EXPECT_LT(mean_abs_difference(dd_o, rec.series(zgb.o)), 0.06) << ranks << " ranks";
  }
}

TEST(DomainDecomp, MessageCountMatchesProtocol) {
  // Every round, each rank sends exactly two messages (halo push + seam
  // return) when p > 1.
  auto zgb = models::make_zgb();
  const Lattice lat(20, 10);
  DomainDecompParams params;
  params.ranks = 2;
  params.t_end = 1.0;
  params.sample_dt = 10.0;  // effectively one sample
  const auto dd = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  EXPECT_EQ(dd.comm.messages, 2u * 2u * dd.rounds);
  // Each message carries 2 r H = 2 * 1 * 10 species bytes.
  EXPECT_EQ(dd.comm.bytes, dd.comm.messages * 20u);
}

TEST(DomainDecomp, TrialBudgetIsOneMcStepPerRound) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 10);
  DomainDecompParams params;
  params.ranks = 2;
  params.t_end = 2.0;
  const auto dd = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  EXPECT_EQ(dd.total_trials, dd.rounds * lat.size());
}

TEST(DomainDecomp, CoverageRowsSumToOne) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 10.0));
  const Lattice lat(24, 12);
  DomainDecompParams params;
  params.ranks = 4;
  params.t_end = 4.0;
  params.sample_dt = 1.0;
  const auto dd = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  ASSERT_FALSE(dd.times.empty());
  for (std::size_t i = 0; i < dd.times.size(); ++i) {
    double sum = 0;
    for (const auto& row : dd.coverage) sum += row[i];
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DomainDecomp, DeterministicForFixedSeed) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 10);
  DomainDecompParams params;
  params.ranks = 2;
  params.seed = 5;
  params.t_end = 2.0;
  const auto a = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  const auto b = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.times, b.times);
}

TEST(DomainDecomp, ObservabilityDoesNotPerturbTrajectory) {
  // The null-probe-off contract extended to the comm layer: a run with
  // metrics and tracing armed must produce exactly the same trajectory as
  // a bare run — probes read clocks and bump counters, never RNG or
  // lattice state.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(24, 12);
  const Configuration initial(lat, 3, zgb.vacant);

  DomainDecompParams bare;
  bare.ranks = 4;
  bare.seed = 9;
  bare.t_end = 3.0;
  bare.sample_dt = 0.5;
  const auto a = run_domain_decomp(zgb.model, initial, bare);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  DomainDecompParams instrumented = bare;
  instrumented.sinks = {&registry, &tracer};
  const auto b = run_domain_decomp(zgb.model, initial, instrumented);

  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.total_trials, b.total_trials);
  EXPECT_EQ(a.comm.messages, b.comm.messages);
  EXPECT_EQ(a.comm.bytes, b.comm.bytes);

  // The instrumented run did observe: per-rank lanes carry compute spans
  // and the registry carries edge traffic.
  EXPECT_GT(tracer.total_recorded(), 0u);
  std::uint64_t edge_messages = 0;
  for (const auto& c : registry.counters()) {
    if (c.name.starts_with("comm/edge/") && c.name.ends_with("/messages")) {
      edge_messages += c.value;
    }
  }
  EXPECT_EQ(edge_messages, b.comm.messages);
}

}  // namespace
}  // namespace casurf
