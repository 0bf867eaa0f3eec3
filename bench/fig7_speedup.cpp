// Reproduces Fig 7 of the paper: the PNDCA speedup T(1,N)/T(p,N) as a
// function of the lattice side N (200..1000) and the processor count p
// (2..10).
//
// Substitution (see DESIGN.md): the figure's p axis runs to 10 and this
// host has 4 cores, so the table is a calibrated cost model — per-trial
// cost t_site is measured on the real sequential PNDCA sweep on this
// machine, while load balance comes from the actual chunk sizes of the
// partition and the synchronization constants are representative of the
// clusters the paper targets. The model is only needed for p > 4; the
// real threaded sweep (PndcaSimulator with threads, whose trajectory
// equality with one thread the test suite enforces) is timed below for
// p = 1, 2 and 4, the points this host can measure.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "models/zgb.hpp"
#include "parallel/simulated_machine.hpp"
#include "partition/coloring.hpp"

using namespace casurf;

int main() {
  bench::header("Fig 7 — speedup T(1,N)/T(p,N) of PNDCA vs lattice side N and p");

  const bool fast = bench::fast_mode();
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));

  // Calibrate the per-trial cost on this host with a real sequential run.
  const Lattice cal_lat(fast ? 64 : 128, fast ? 64 : 128);
  PndcaSimulator cal(zgb.model, Configuration(cal_lat, 3, zgb.vacant),
                     {make_partition(cal_lat, zgb.model)}, 1);
  const MachineParams params = SimulatedMachine::calibrate(cal, fast ? 2 : 8);
  std::printf("calibrated t_site = %.1f ns/trial on this host; barrier model "
              "alpha=%.0f us + %.0f us * log2(p); serial fraction %.0f%%\n\n",
              params.t_site_seconds * 1e9, params.barrier_alpha * 1e6,
              params.barrier_beta * 1e6, params.serial_fraction * 100);

  const SimulatedMachine machine(params);

  std::printf("%-6s", "N\\p");
  for (int p = 2; p <= 10; ++p) std::printf("%8d", p);
  std::printf("\n");

  std::vector<std::vector<double>> csv_cols;
  std::vector<std::string> csv_headers = {"N"};
  for (int p = 2; p <= 10; ++p) csv_headers.push_back("p" + std::to_string(p));
  csv_cols.resize(csv_headers.size());

  for (const std::int32_t side : {200, 300, 400, 500, 600, 700, 800, 900, 1000}) {
    const Lattice lat(side, side);
    const Partition part = Partition::linear_form(lat, 1, 3, 5);
    std::printf("%-6d", side);
    csv_cols[0].push_back(side);
    for (int p = 2; p <= 10; ++p) {
      const auto point = machine.predict(part, p, 1);
      std::printf("%8.2f", point.speedup());
      csv_cols[p - 1].push_back(point.speedup());
    }
    std::printf("\n");
  }
  stats::write_csv(bench::out_dir() + "/fig7_speedup.csv", csv_headers, csv_cols);
  std::printf("  [csv] %s/fig7_speedup.csv\n", bench::out_dir().c_str());

  std::printf("\nPaper shape check: speedup grows with N, saturates with p;\n");
  std::printf("max ~8 at p = 10 for the largest lattice.\n");

  // Sanity: drive the real threaded sweep on this host's cores. At 100x100
  // a sweep is too short for threads to pay, so this line shows overhead
  // and correctness, not the figure's speedup.
  const Lattice small(fast ? 50 : 100, fast ? 50 : 100);
  const int steps = fast ? 2 : 5;
  std::printf("\nReal threaded PNDCA on this host (%d x %d, %d steps):\n",
              small.width(), small.height(), steps);
  for (const unsigned threads : {1u, 2u, 4u}) {
    PndcaSimulator engine(zgb.model, Configuration(small, 3, zgb.vacant),
                          {make_partition(small, zgb.model)}, 7,
                          ChunkPolicy::kRandomOrder, TimeMode::kStochastic, threads);
    obs::MetricsRegistry registry;
    engine.attach({&registry});
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) engine.mc_step();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0).count();
    std::printf("  threads=%u  wall=%.3fs  executed=%llu\n", threads, dt,
                static_cast<unsigned long long>(engine.counters().executed));

    obs::RunInfo info;
    info.algorithm = engine.name();
    info.model = "zgb";
    info.width = small.width();
    info.height = small.height();
    info.seed = 7;
    info.t_end = engine.time();
    info.threads = threads;
    info.wall_seconds = dt;
    bench::write_bench_report("fig7_threads" + std::to_string(threads), info, engine,
                              registry);
  }
  return 0;
}
