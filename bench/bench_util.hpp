#pragma once

// Shared helpers for the figure/table reproduction harness. Each bench
// binary prints the rows/series the paper reports and additionally dumps
// the raw series to bench_out/*.csv for plotting.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "stats/csv.hpp"
#include "stats/timeseries.hpp"

namespace casurf::bench {

/// Directory for CSV dumps; created on demand next to the working dir.
inline std::string out_dir() {
  static const std::string dir = [] {
    std::error_code ec;
    std::filesystem::create_directories("bench_out", ec);
    return std::string("bench_out");
  }();
  return dir;
}

inline void dump_series(const std::string& name, const std::vector<std::string>& cols,
                        const std::vector<TimeSeries>& series) {
  const std::string path = out_dir() + "/" + name + ".csv";
  stats::write_csv_series(path, cols, series);
  std::printf("  [csv] %s\n", path.c_str());
}

/// Print a series as a compact table: one row every `stride` samples.
inline void print_series(const char* label, const TimeSeries& ts, std::size_t rows = 12) {
  std::printf("  %s:\n    t       value\n", label);
  const std::size_t stride = ts.size() <= rows ? 1 : ts.size() / rows;
  for (std::size_t i = 0; i < ts.size(); i += stride) {
    std::printf("    %-7.1f %.4f\n", ts.time(i), ts.value(i));
  }
}

/// Dump an instrumented bench run as bench_out/BENCH_<name>.json — the
/// same schema casurf_run --metrics emits, written through the atomic
/// path. Attach the registry (sim.attach) before the timed section
/// so the per-phase timers cover it. Pass a SpatialSummary to fill the
/// report's "spatial" section (null leaves it null, as casurf_run does
/// without --heatmap).
inline void write_bench_report(const std::string& name, const obs::RunInfo& info,
                               const Simulator& sim,
                               const obs::MetricsRegistry& registry,
                               const obs::SpatialSummary* spatial = nullptr) {
  const std::string path = out_dir() + "/BENCH_" + name + ".json";
  obs::write_run_report(path, info, &sim, &registry, nullptr, spatial);
  std::printf("  [json] %s\n", path.c_str());
}

/// Scale factor for quick smoke runs: CASURF_BENCH_FAST=1 shrinks the
/// heavy figure benches (smaller lattice / shorter horizon) so the whole
/// harness runs in seconds. Full paper-scale runs are the default.
inline bool fast_mode() {
  const char* v = std::getenv("CASURF_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

/// {median, lower quartile, upper quartile} of `v` (not empty), each by
/// linear interpolation between order statistics.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.5), at(0.25), at(0.75)};
}

inline void header(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

}  // namespace casurf::bench
