// The abstract's "experimental data for the simulation of the Ziff model":
// the kinetic phase diagram of ZGB CO oxidation. Sweeping the CO fraction y
// maps the O-poisoned phase (y < y1 ~ 0.39), the reactive window, and the
// first-order CO-poisoning transition (y > y2 ~ 0.525). RSM (exact DMC) and
// PNDCA (five conflict-free chunks) are compared point by point.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "models/zgb.hpp"
#include "obs/spatial.hpp"
#include "partition/conflict.hpp"
#include "stats/correlations.hpp"

using namespace casurf;

namespace {

struct PhasePoint {
  double co, o, vacant, rate;  // steady coverages + CO2 rate per site/time
  /// Steady nearest-neighbor pair correlations (1 = random mixing): CO-CO
  /// and O-O clustering distinguish the reactive phase's mixed adlayer from
  /// the segregated islands a coarse partition can induce at the same
  /// coverages.
  double g_coco, g_oo;
};

PhasePoint steady_state(Algorithm algo, double y, std::int32_t side, double t_relax,
                        double t_avg, std::uint64_t seed) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(y, 20.0));
  SimulationOptions opt;
  opt.algorithm = algo;
  opt.seed = seed;
  auto sim = make_simulator(zgb.model, Configuration(Lattice(side, side), 3, zgb.vacant),
                            opt);
  sim->advance_to(t_relax);
  std::uint64_t co2_before = 0;
  for (int i = 3; i < 7; ++i) co2_before += sim->counters().executed_per_type[i];
  const double t_before = sim->time();

  PhasePoint p{};
  int n = 0;
  while (sim->time() < t_relax + t_avg) {
    sim->advance_to(sim->time() + 1.0);
    p.co += sim->configuration().coverage(zgb.co);
    p.o += sim->configuration().coverage(zgb.o);
    p.vacant += sim->configuration().coverage(zgb.vacant);
    p.g_coco += stats::pair_correlation(sim->configuration(), zgb.co, zgb.co);
    p.g_oo += stats::pair_correlation(sim->configuration(), zgb.o, zgb.o);
    ++n;
  }
  p.co /= n;
  p.o /= n;
  p.vacant /= n;
  p.g_coco /= n;
  p.g_oo /= n;
  std::uint64_t co2_after = 0;
  for (int i = 3; i < 7; ++i) co2_after += sim->counters().executed_per_type[i];
  p.rate = static_cast<double>(co2_after - co2_before) /
           (static_cast<double>(side) * side * (sim->time() - t_before));
  return p;
}

}  // namespace

int main() {
  bench::header("ZGB phase diagram — steady coverages vs CO fraction y (RSM vs PNDCA)");

  const bool fast = bench::fast_mode();
  const std::int32_t side = fast ? 32 : 64;
  const double t_relax = fast ? 15.0 : 60.0;
  const double t_avg = fast ? 10.0 : 30.0;

  std::printf("lattice %d x %d, relax %.0f, average %.0f (finite reaction rate k=20)\n\n",
              side, side, t_relax, t_avg);
  std::printf("%-6s | %-37s | %-37s | %s\n", "y",
              "RSM  CO     O     rate   gCC   gOO",
              "PNDCA CO    O     rate   gCC   gOO", "phase");
  std::printf("-------+---------------------------------------+"
              "---------------------------------------+---------\n");

  std::vector<double> ys, rsm_co, rsm_o, rsm_rate, rsm_gcc, rsm_goo, ca_co,
      ca_o, ca_rate, ca_gcc, ca_goo;
  for (const double y : {0.20, 0.30, 0.35, 0.40, 0.44, 0.48, 0.50, 0.52, 0.54,
                         0.56, 0.60, 0.70}) {
    const PhasePoint rsm = steady_state(Algorithm::kRsm, y, side, t_relax, t_avg, 11);
    const PhasePoint ca = steady_state(Algorithm::kPndca, y, side, t_relax, t_avg, 23);
    const char* phase = rsm.co > 0.9 ? "CO-poisoned"
                        : rsm.o > 0.9 ? "O-poisoned"
                                      : "reactive";
    std::printf("%-6.2f | %5.3f  %5.3f  %6.4f %5.2f %5.2f | %5.3f  %5.3f  "
                "%6.4f %5.2f %5.2f | %s\n",
                y, rsm.co, rsm.o, rsm.rate, rsm.g_coco, rsm.g_oo, ca.co, ca.o,
                ca.rate, ca.g_coco, ca.g_oo, phase);
    ys.push_back(y);
    rsm_co.push_back(rsm.co);
    rsm_o.push_back(rsm.o);
    rsm_rate.push_back(rsm.rate);
    rsm_gcc.push_back(rsm.g_coco);
    rsm_goo.push_back(rsm.g_oo);
    ca_co.push_back(ca.co);
    ca_o.push_back(ca.o);
    ca_rate.push_back(ca.rate);
    ca_gcc.push_back(ca.g_coco);
    ca_goo.push_back(ca.g_oo);
  }

  stats::write_csv(bench::out_dir() + "/zgb_phase_diagram.csv",
                   {"y", "rsm_co", "rsm_o", "rsm_rate", "rsm_g_coco", "rsm_g_oo",
                    "pndca_co", "pndca_o", "pndca_rate", "pndca_g_coco",
                    "pndca_g_oo"},
                   {ys, rsm_co, rsm_o, rsm_rate, rsm_gcc, rsm_goo, ca_co, ca_o,
                    ca_rate, ca_gcc, ca_goo});
  std::printf("  [csv] %s/zgb_phase_diagram.csv\n", bench::out_dir().c_str());

  // One instrumented PNDCA run in the reactive window feeds the report
  // pipeline: phase timers, the spatial activity summary (chunk balance and
  // seam accounting), all in the same casurf-run-report/1 schema the CLI
  // consumes — `casurf_report bench_out/BENCH_zgb_phase.json`.
  {
    const double y = 0.48;
    const auto zgb = models::make_zgb(models::ZgbParams::from_y(y, 20.0));
    SimulationOptions opt;
    opt.algorithm = Algorithm::kPndca;
    opt.seed = 29;
    auto sim = make_simulator(
        zgb.model, Configuration(Lattice(side, side), 3, zgb.vacant), opt);
    obs::MetricsRegistry registry;
    obs::SpatialMap activity(sim->configuration().size());
    sim->attach({&registry, nullptr, &activity});
    const auto t0 = std::chrono::steady_clock::now();
    sim->advance_to(fast ? 10.0 : 30.0);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    obs::RunInfo info;
    info.algorithm = sim->name();
    info.model = "zgb";
    info.width = side;
    info.height = side;
    info.seed = 29;
    info.t_end = sim->time();
    info.dt = 1.0;
    info.threads = 1;
    info.wall_seconds = wall;
    if (sim->spatial_partition() != nullptr) {
      const obs::SpatialSummary summary = obs::summarize(
          activity, *sim->spatial_partition(), conflict_offsets(zgb.model));
      bench::write_bench_report("zgb_phase", info, *sim, registry, &summary);
    } else {
      bench::write_bench_report("zgb_phase", info, *sim, registry);
    }
  }

  std::printf("\nPaper/ZGB shape check: O-rich at low y, reactive window around\n");
  std::printf("y ~ 0.4-0.53, abrupt CO poisoning just above; RSM and PNDCA agree.\n");
  std::printf("(finite reaction rate shifts the window slightly vs the original\n");
  std::printf("instantaneous-reaction ZGB values y1=0.389, y2=0.525)\n");
  return 0;
}
