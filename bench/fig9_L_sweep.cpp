// Reproduces Fig 9 of the paper: L-PNDCA on the Pt(100) oscillation model
// with the optimal five-chunk partition and chunk selection proportional to
// chunk size. (a) L = 1 tracks RSM closely; (b) L = 100 introduces
// correlations that shift/damp the coverage oscillations. The L sweep runs
// five seeds per L and reports the spread of its ratios to RSM.

#include <chrono>
#include <cstdio>
#include <vector>

#include "ca/lpndca.hpp"
#include "ca/pndca.hpp"
#include "dmc/rsm.hpp"
#include "pt100_util.hpp"

using namespace casurf;

int main() {
  bench::header("Fig 9 — L-PNDCA with five chunks: L = 1 vs L = 100, Pt(100)");

  const bool fast = bench::fast_mode();
  const std::int32_t side = fast ? 60 : 100;
  const double t_end = fast ? 120.0 : 300.0;
  const double skip = t_end * 0.15;  // discard the start-up transient
  const auto pt = models::make_pt100();
  const Lattice lat(side, side);
  const Configuration initial(lat, 5, pt.hex_vac);
  const Partition five = Partition::linear_form(lat, 1, 3, 5);

  std::printf("lattice %d x %d, t_end = %.0f, partition m = 5\n\n", side, side, t_end);

  RsmSimulator rsm(pt.model, initial, 1);
  const auto rsm_run = bench::record_pt100(rsm, pt, t_end, 0.5);

  LPndcaSimulator l1(pt.model, initial, five, 2, 1);
  const auto l1_run = bench::record_pt100(l1, pt, t_end, 0.5);

  LPndcaSimulator l100(pt.model, initial, five, 3, 100);
  const auto l100_run = bench::record_pt100(l100, pt, t_end, 0.5);

  std::printf("Oscillation character of the CO coverage (transient skipped):\n");
  bench::print_oscillation("RSM (reference)", rsm_run.co, skip);
  bench::print_oscillation("L-PNDCA, L=1   (Fig 9a)", l1_run.co, skip);
  bench::print_oscillation("L-PNDCA, L=100 (Fig 9b)", l100_run.co, skip);

  const auto rsm_osc = stats::detect_oscillations(rsm_run.co, skip);
  const auto l1_osc = stats::detect_oscillations(l1_run.co, skip);
  const auto l100_osc = stats::detect_oscillations(l100_run.co, skip);

  std::printf("\nDeviation from the DMC reference:\n");
  if (rsm_osc.mean_period > 0 && l1_osc.mean_period > 0) {
    std::printf("  L=1   period ratio vs RSM: %.2f (paper: ~1, 'almost the same')\n",
                l1_osc.mean_period / rsm_osc.mean_period);
  }
  if (rsm_osc.mean_period > 0 && l100_osc.mean_period > 0) {
    std::printf("  L=100 period ratio vs RSM: %.2f (paper: oscillations deviate in time)\n",
                l100_osc.mean_period / rsm_osc.mean_period);
  }
  std::printf("  L=1   amplitude ratio: %.2f\n",
              rsm_osc.mean_amplitude > 0
                  ? l1_osc.mean_amplitude / rsm_osc.mean_amplitude : 0.0);
  std::printf("  L=100 amplitude ratio: %.2f\n",
              rsm_osc.mean_amplitude > 0
                  ? l100_osc.mean_amplitude / rsm_osc.mean_amplitude : 0.0);

  bench::dump_series("fig9_rsm", {"co", "o"}, {rsm_run.co, rsm_run.o});
  bench::dump_series("fig9_L1", {"co", "o"}, {l1_run.co, l1_run.o});
  bench::dump_series("fig9_L100", {"co", "o"}, {l100_run.co, l100_run.o});

  // Extended L sweep: the full accuracy-vs-parallel-batch trade-off. Single
  // runs of one setting spread by 9-15%, so each L runs kSeeds seeds and
  // the ratios to RSM are reported as median [lower quartile, upper
  // quartile] over them.
  constexpr std::uint64_t kSeeds = 5;
  std::printf("\nL sweep (same partition; ratios to RSM over %llu seeds, median [q1, q3]):\n",
              static_cast<unsigned long long>(kSeeds));
  std::printf("%-6s %-12s %-22s %-22s\n", "L", "peaks", "period/RSM", "amp/RSM");
  for (const std::uint32_t l_param : {1u, 10u, 100u, 1000u}) {
    std::vector<double> peaks, period, amp;
    for (std::uint64_t k = 0; k < kSeeds; ++k) {
      LPndcaSimulator sweep_sim(pt.model, initial, five, 17 + l_param + 1000 * k, l_param);
      const auto run = bench::record_pt100(sweep_sim, pt, t_end, 0.5);
      const auto osc = stats::detect_oscillations(run.co, skip);
      peaks.push_back(static_cast<double>(osc.num_peaks));
      period.push_back(rsm_osc.mean_period > 0 ? osc.mean_period / rsm_osc.mean_period : 0.0);
      amp.push_back(rsm_osc.mean_amplitude > 0 ? osc.mean_amplitude / rsm_osc.mean_amplitude
                                               : 0.0);
    }
    const auto [pk, pk_lo, pk_hi] = bench::quartiles(peaks);
    const auto [pe, pe_lo, pe_hi] = bench::quartiles(period);
    const auto [am, am_lo, am_hi] = bench::quartiles(amp);
    std::printf("%-6u %4.0f [%2.0f,%2.0f]  %.2f [%.2f, %.2f]      %.2f [%.2f, %.2f]\n", l_param,
                pk, pk_lo, pk_hi, pe, pe_lo, pe_hi, am, am_lo, am_hi);
  }

  // Rate-weighted chunk selection (paper section 5, option 4). First the
  // accuracy angle: L = 1 with chunks weighted by their enabled rate
  // instead of their size, on the same five-chunk form.
  std::printf("\nRate-weighted chunk selection (L = 1, five chunks):\n");
  LPndcaSimulator lrw(pt.model, initial, five, 4, 1, TimeMode::kStochastic,
                      ChunkWeighting::kRateWeighted);
  const auto lrw_run = bench::record_pt100(lrw, pt, t_end, 0.5);
  bench::print_oscillation("L-PNDCA, L=1, rate-weighted", lrw_run.co, skip);
  bench::dump_series("fig9_L1_rate_weighted", {"co", "o"}, {lrw_run.co, lrw_run.o});

  // Then the cost angle: step throughput of the rate-weighted PNDCA policy
  // with the incremental enabled-rate cache ("after") vs the previous
  // brute per-step O(N |T|) chunk-weight rescan ("before", emulated by
  // recomputing every chunk weight from the configuration each step).
  using clock = std::chrono::steady_clock;
  const int throughput_steps = fast ? 40 : 150;

  const auto run_info = [&](const Simulator& sim, double wall) {
    obs::RunInfo info;
    info.algorithm = sim.name();
    info.model = "pt100";
    info.width = side;
    info.height = side;
    info.seed = 5;
    info.t_end = sim.time();
    info.threads = 1;
    info.wall_seconds = wall;
    return info;
  };

  PndcaSimulator cached(pt.model, initial, {five}, 5, ChunkPolicy::kRateWeighted);
  obs::MetricsRegistry cached_reg;
  cached.attach({&cached_reg});
  const auto t_after0 = clock::now();
  for (int i = 0; i < throughput_steps; ++i) cached.mc_step();
  const double after_s = std::chrono::duration<double>(clock::now() - t_after0).count();
  bench::write_bench_report("fig9_rate_weighted_cached", run_info(cached, after_s),
                            cached, cached_reg);

  PndcaSimulator brute(pt.model, initial, {five}, 5, ChunkPolicy::kRateWeighted);
  obs::MetricsRegistry brute_reg;
  brute.attach({&brute_reg});
  std::vector<double> weights(five.num_chunks());
  const auto t_before0 = clock::now();
  for (int i = 0; i < throughput_steps; ++i) {
    for (ChunkId c = 0; c < five.num_chunks(); ++c) {
      weights[c] = brute.enabled_rate_in_chunk(five, c);
    }
    brute.mc_step();
  }
  const double before_s = std::chrono::duration<double>(clock::now() - t_before0).count();
  bench::write_bench_report("fig9_rate_weighted_brute", run_info(brute, before_s),
                            brute, brute_reg);

  std::printf("\nRate-weighted selection cost (%d PNDCA steps, %d x %d):\n",
              throughput_steps, side, side);
  std::printf("  before (brute per-step rescan): %8.1f steps/s\n",
              throughput_steps / before_s);
  std::printf("  after  (incremental cache):     %8.1f steps/s\n",
              throughput_steps / after_s);
  std::printf("  speedup: %.1fx\n", before_s / after_s);
  return 0;
}
