#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace casurf {
class Simulator;
}

namespace casurf::obs {

/// Run-level metadata embedded in the report header (everything the
/// registry cannot know: what was simulated, with which knobs).
struct RunInfo {
  std::string algorithm;
  std::string model;
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::uint64_t seed = 0;
  double t_end = 0;
  double dt = 0;
  unsigned threads = 0;
  double wall_seconds = 0;
  std::string trace_id;           ///< cross-process correlation id ("" = none)
  std::uint64_t trace_drops = 0;  ///< trace events lost to ring wrap-around
};

class DriftMonitor;
struct SpatialSummary;

/// One supervised restart: why the previous attempt died, and where the new
/// one resumed (docs/ROBUSTNESS.md). The supervisor appends the record with
/// cause/attempt/wall_seconds plus a resume estimate from peeking the
/// checkpoint chain; the replacement worker overwrites the estimate with
/// the restore's actual outcome. Only the final worker's log reaches the
/// report (earlier generations die with their copy), so intermediate
/// records carry the supervisor's estimate.
struct RecoveryRecord {
  std::string cause;           ///< "crash" | "signal" | "watchdog"
  int detail = 0;              ///< exit status ("crash") or signal number
  std::uint64_t attempt = 0;   ///< 1-based restart index
  double resume_time = 0;      ///< simulated time the replacement resumed at
  std::string restore_source;  ///< "primary" | "backup" | "clean"
  double wall_seconds = 0;     ///< wall time since supervised start at restart
};

/// Everything the "recovery" report section carries: the restart history of
/// a supervised run plus the graceful-degradation counters (checkpoint
/// writes/rotations that failed but did not stop the run). The section is
/// emitted as null unless the run was supervised or a degradation counter
/// is nonzero — an undisturbed run's report is unchanged.
struct RecoveryLog {
  bool supervised = false;
  std::uint64_t retries_allowed = 0;
  std::vector<RecoveryRecord> records;
  std::uint64_t checkpoint_write_failures = 0;
  std::uint64_t checkpoint_rotate_failures = 0;

  [[nodiscard]] bool empty() const {
    return !supervised && checkpoint_write_failures == 0 &&
           checkpoint_rotate_failures == 0;
  }
};

/// Serialize one run as a structured JSON report (schema
/// "casurf-run-report/1", documented in docs/OBSERVABILITY.md): run
/// metadata, the simulator's execution counters with per-reaction
/// breakdown, every registry probe, a thread-balance section derived from
/// the `threads/busy/worker<k>` timers, the drift-monitor verdict, the
/// spatial activity summary (per-chunk imbalance and seam-vs-interior
/// accounting), and the supervised-recovery history. `sim`, `registry`,
/// `drift`, `spatial`, and `recovery` may each be null; the corresponding
/// sections are emitted empty (drift/spatial/recovery: null). A non-null
/// but empty() recovery log is also emitted as null.
[[nodiscard]] std::string run_report_json(const RunInfo& info, const Simulator* sim,
                                          const MetricsRegistry* registry,
                                          const DriftMonitor* drift = nullptr,
                                          const SpatialSummary* spatial = nullptr,
                                          const RecoveryLog* recovery = nullptr);

/// Write the report through the crash-safe atomic-write path, so a report
/// refreshed periodically (--metrics-every) is never observed truncated.
void write_run_report(const std::string& path, const RunInfo& info,
                      const Simulator* sim, const MetricsRegistry* registry,
                      const DriftMonitor* drift = nullptr,
                      const SpatialSummary* spatial = nullptr,
                      const RecoveryLog* recovery = nullptr);

}  // namespace casurf::obs
