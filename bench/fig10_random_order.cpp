// Reproduces Fig 10 of the paper: PNDCA with five chunks where every chunk
// is swept exactly once per step in a fresh random order (the L = N^2/m
// full-sweep regime). Despite the maximal per-chunk batch size, the random
// once-per-step order preserves the coverage oscillations.

#include <cstdio>

#include "ca/pndca.hpp"
#include "dmc/rsm.hpp"
#include "pt100_util.hpp"

using namespace casurf;

int main() {
  bench::header("Fig 10 — PNDCA, five chunks, random order once per step (L = N^2/m)");

  const bool fast = bench::fast_mode();
  const std::int32_t side = fast ? 60 : 100;
  const double t_end = fast ? 100.0 : 100.0;
  const double skip = t_end * 0.25;
  const auto pt = models::make_pt100();
  const Lattice lat(side, side);
  const Configuration initial(lat, 5, pt.hex_vac);
  const Partition five = Partition::linear_form(lat, 1, 3, 5);

  std::printf("lattice %d x %d, t_end = %.0f; full chunk sweeps (%u sites each)\n\n",
              side, side, t_end, static_cast<unsigned>(five.max_chunk_size()));

  RsmSimulator rsm(pt.model, initial, 1);
  const auto rsm_run = bench::record_pt100(rsm, pt, t_end, 0.5);

  PndcaSimulator random_order(pt.model, initial, {five}, 2, ChunkPolicy::kRandomOrder);
  const auto ro_run = bench::record_pt100(random_order, pt, t_end, 0.5);

  // Contrast: chunk selection with replacement (paper: for large L and
  // |Pi|/|P| selection the oscillations drift and eventually disappear).
  PndcaSimulator with_repl(pt.model, initial, {five}, 3,
                           ChunkPolicy::kRandomWithReplacement);
  const auto wr_run = bench::record_pt100(with_repl, pt, t_end, 0.5);

  bench::print_series("RSM CO coverage", rsm_run.co);
  bench::print_series("PNDCA random-order CO coverage", ro_run.co);

  std::printf("\nOscillation character (transient skipped):\n");
  bench::print_oscillation("RSM (reference)", rsm_run.co, skip);
  bench::print_oscillation("PNDCA random order (Fig 10)", ro_run.co, skip);
  bench::print_oscillation("PNDCA with replacement", wr_run.co, skip);

  std::printf("\nMean |delta CO coverage| vs RSM: random-order %.4f, replacement %.4f\n",
              mean_abs_difference(rsm_run.co, ro_run.co),
              mean_abs_difference(rsm_run.co, wr_run.co));
  std::printf("(pointwise distances between independent runs are dominated by\n");
  std::printf(" stochastic phase alignment; the figure's claim lives in the\n");
  std::printf(" period/amplitude comparison above. The with-replacement policy's\n");
  std::printf(" degradation at maximal L is horizon- and run-dependent at t <= 100;\n");
  std::printf(" single runs' periods spread by 9%% or more, see fig9's L sweep.)\n");

  bench::dump_series("fig10_rsm", {"co", "o"}, {rsm_run.co, rsm_run.o});
  bench::dump_series("fig10_random_order", {"co", "o"}, {ro_run.co, ro_run.o});
  bench::dump_series("fig10_with_replacement", {"co", "o"}, {wr_run.co, wr_run.o});
  return 0;
}
