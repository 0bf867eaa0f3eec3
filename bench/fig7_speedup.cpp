// Reproduces Fig 7 of the paper: the PNDCA speedup T(1,N)/T(p,N) as a
// function of the lattice side N and the processor count p, measured with
// the threaded sweep (PndcaSimulator with `threads` = p) on this host's
// cores. The paper's p axis runs to 10; this one stops at the host's 4.
//
// Every run of one side N does the same work: it starts from one ZGB
// (y = 0.45) configuration equilibrated to t = 2 and runs the MC steps
// that make about 4e7 trials (N^2 trials a step) under one seed. Its wall
// is the in-process wall of those mc_step calls. Each (N, p) is repeated
// eight times, the p order rotated by one between repetitions so that no p
// always runs first. T(p,N) is the median [quartiles] of its walls, and the
// speedup the median [quartiles] of the per-repetition ratios
// T(1,N)/T(p,N). The sweep's phase timers split each wall: the test phase
// is slice 0's threads/busy plus its threads/wait (the phase's wall, sweep
// by sweep), the commit phase threads/merge, and the rest ("other") is the
// steps' plans and time draws; each is reported as its median.
//
// The thread count must not change the trajectory: every run of a side
// has to end in the configuration, clock and counters of its first p = 1
// run, or the bench exits 1 naming the point. CASURF_BENCH_FAST=1 runs
// small sides with a small budget and three repetitions.
//
// Threaded walls move with the CPU time the hypervisor of a virtual
// machine steals, so each side's runs are bracketed by two reads of the
// aggregate `cpu` line of /proc/stat, and the stolen share of that time is
// printed under the side's rows and written as the steal_pct column (nan
// where /proc/stat cannot be read).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ca/pndca.hpp"
#include "models/zgb.hpp"
#include "partition/coloring.hpp"

using namespace casurf;

namespace {

constexpr unsigned kMaxThreads = 4;
constexpr std::uint64_t kSeed = 7;

/// What every thread count must reproduce.
struct Outcome {
  Configuration config;
  double time;
  SimCounters counters;

  [[nodiscard]] bool matches(const Simulator& sim) const {
    const SimCounters& c = sim.counters();
    return sim.configuration() == config && sim.time() == time &&
           c.trials == counters.trials && c.executed == counters.executed &&
           c.steps == counters.steps && c.executed_per_type == counters.executed_per_type;
  }
};

/// One point's runs, in seconds. `other` is the wall outside both phases.
struct Point {
  std::vector<double> wall, test, commit, other;
};

double seconds(obs::MetricsRegistry& registry, const std::string& timer) {
  return static_cast<double>(registry.timer(timer).total_ns()) * 1e-9;
}

/// The first eight fields of /proc/stat's aggregate `cpu` line, in clock
/// ticks: user, nice, system, idle, iowait, irq, softirq and steal.
using CpuTicks = std::array<std::uint64_t, 8>;

std::optional<CpuTicks> read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks{};
  if (!(in >> label) || label != "cpu") return std::nullopt;
  for (std::uint64_t& t : ticks) {
    if (!(in >> t)) return std::nullopt;
  }
  return ticks;
}

/// Percent of the CPU time between two reads that was stolen: the steal
/// delta over the delta of all eight fields; nan if either read failed or
/// no tick passed between them.
double steal_pct(const std::optional<CpuTicks>& before,
                 const std::optional<CpuTicks>& after) {
  if (!before || !after) return std::numeric_limits<double>::quiet_NaN();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < before->size(); ++i) total += (*after)[i] - (*before)[i];
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  return 100.0 * static_cast<double>((*after)[7] - (*before)[7]) /
         static_cast<double>(total);
}

}  // namespace

int main() {
  bench::header("Fig 7 — speedup T(1,N)/T(p,N) of threaded PNDCA vs lattice side N and p");

  const bool fast = bench::fast_mode();
  const int reps = fast ? 3 : 8;
  const double budget = fast ? 2e5 : 4e7;  // trials per run
  const std::vector<std::int32_t> sides =
      fast ? std::vector<std::int32_t>{50, 100}
           : std::vector<std::int32_t>{200, 500, 1000, 2000};
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));

  std::printf("ZGB y = 0.45 from an equilibrated t = 2 start, %.0e trials per run, "
              "%d repetitions, p order rotated; seconds, median [q1, q3]\n\n",
              budget, reps);
  std::printf("%6s %2s %6s  %-26s %8s %8s %8s  %s\n", "N", "p", "steps", "T(p,N)", "test",
              "commit", "other", "T(1,N)/T(p,N)");

  const std::vector<std::string> headers = {
      "N",        "p",       "steps",   "wall_s",  "wall_q1_s",  "wall_q3_s",
      "test_s",   "commit_s", "other_s", "speedup", "speedup_q1", "speedup_q3",
      "steal_pct"};
  std::vector<std::vector<double>> cols(headers.size());
  std::vector<std::array<double, kMaxThreads>> surface;

  for (const std::int32_t side : sides) {
    const Lattice lat(side, side);
    const Partition part = make_partition(lat, zgb.model);
    const Configuration start = [&] {
      PndcaSimulator warm(zgb.model, Configuration(lat, 3, zgb.vacant), {part}, 3,
                          ChunkPolicy::kRandomOrder, TimeMode::kStochastic, kMaxThreads);
      warm.advance_to(2.0);
      return warm.configuration();
    }();
    const auto steps = static_cast<std::uint64_t>(
        std::max(1.0, std::round(budget / static_cast<double>(lat.size()))));

    std::array<Point, kMaxThreads> points;
    std::optional<Outcome> reference;  // the first run's, which is p = 1's
    const std::optional<CpuTicks> ticks_before = read_cpu_ticks();
    for (int r = 0; r < reps; ++r) {
      for (unsigned i = 0; i < kMaxThreads; ++i) {
        const unsigned p = 1 + (static_cast<unsigned>(r) + i) % kMaxThreads;
        obs::MetricsRegistry registry;
        PndcaSimulator sim(zgb.model, start, {part}, kSeed, ChunkPolicy::kRandomOrder,
                           TimeMode::kStochastic, p);
        sim.attach({&registry});
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t k = 0; k < steps; ++k) sim.mc_step();
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

        if (!reference) {
          reference = Outcome{sim.configuration(), sim.time(), sim.counters()};
        } else if (!reference->matches(sim)) {
          std::printf("MISMATCH: N = %d, p = %u, repetition %d ends in another "
                      "configuration, clock or counters than p = 1\n",
                      side, p, r);
          return 1;
        }
        const double test = seconds(registry, "threads/busy/worker0") +
                            seconds(registry, "threads/wait/worker0");
        const double commit = seconds(registry, "threads/merge");
        Point& point = points[p - 1];
        point.wall.push_back(wall);
        point.test.push_back(test);
        point.commit.push_back(commit);
        point.other.push_back(wall - test - commit);

        if (side == sides.back() && r == reps - 1) {
          obs::RunInfo info;
          info.algorithm = sim.name();
          info.model = "zgb";
          info.width = side;
          info.height = side;
          info.seed = kSeed;
          info.t_end = sim.time();
          info.threads = p;
          info.wall_seconds = wall;
          bench::write_bench_report("fig7_threads" + std::to_string(p), info, sim,
                                    registry);
        }
      }
    }

    const double steal = steal_pct(ticks_before, read_cpu_ticks());

    std::array<double, kMaxThreads>& row = surface.emplace_back();
    for (unsigned p = 1; p <= kMaxThreads; ++p) {
      const Point& point = points[p - 1];
      std::vector<double> ratios;
      for (int r = 0; r < reps; ++r) ratios.push_back(points[0].wall[r] / point.wall[r]);
      const auto [wall, wall_q1, wall_q3] = bench::quartiles(point.wall);
      const double test = bench::quartiles(point.test)[0];
      const double commit = bench::quartiles(point.commit)[0];
      const double other = bench::quartiles(point.other)[0];
      const auto [speedup, speedup_q1, speedup_q3] = bench::quartiles(ratios);
      row[p - 1] = speedup;
      std::printf("%6d %2u %6llu  %7.3f [%7.3f, %7.3f]   %8.3f %8.3f %8.3f"
                  "  %5.2f [%4.2f, %4.2f]\n",
                  side, p, static_cast<unsigned long long>(steps), wall, wall_q1, wall_q3,
                  test, commit, other, speedup, speedup_q1, speedup_q3);
      const double values[] = {static_cast<double>(side), static_cast<double>(p),
                               static_cast<double>(steps), wall, wall_q1, wall_q3, test,
                               commit, other, speedup, speedup_q1, speedup_q3, steal};
      for (std::size_t c = 0; c < cols.size(); ++c) cols[c].push_back(values[c]);
    }
    if (std::isnan(steal)) {
      std::printf("%6s hypervisor steal: not measured (/proc/stat)\n", "");
    } else {
      std::printf("%6s hypervisor steal: %.1f%% of CPU time during these runs\n", "", steal);
    }
  }

  std::printf("\nSpeedup surface (medians):\n%-6s", "N\\p");
  for (unsigned p = 1; p <= kMaxThreads; ++p) std::printf("%8u", p);
  std::printf("\n");
  for (std::size_t i = 0; i < sides.size(); ++i) {
    std::printf("%-6d", sides[i]);
    for (const double s : surface[i]) std::printf("%8.2f", s);
    std::printf("\n");
  }
  stats::write_csv(bench::out_dir() + "/fig7_speedup.csv", headers, cols);
  std::printf("  [csv] %s/fig7_speedup.csv\n", bench::out_dir().c_str());
  std::printf("\nEvery run of a side ended in the p = 1 configuration, clock and "
              "counters.\nPaper shape: speedup grows with N and saturates with p "
              "(max ~8 at p = 10).\n");
  return 0;
}
