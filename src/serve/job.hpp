#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace casurf::serve {

/// A submitted job's specification: which model to simulate, with which
/// algorithm and knobs, under which tenant and priority. Parsed from the
/// JSON body of POST /jobs (docs/SERVING.md has the schema) and compiled
/// into a casurf_run command line — the daemon executes every job as its
/// own supervised worker process, so one job's crash (or runaway memory)
/// can never take a neighbour down.
struct JobSpec {
  // Scheduling
  std::string tenant = "default";  ///< quota bucket; [A-Za-z0-9_.-], <= 64 chars
  int priority = 5;                ///< 0 (lowest) .. 9 (highest); FIFO within
  std::uint64_t retries = 3;       ///< worker restarts before the job fails

  // Model: exactly one of `model` (bundled name) or `model_text` (inline
  // model-DSL source, written to the job directory and parsed by the
  // worker with the ordinary --model-file path).
  std::string model;
  std::string model_text;

  // Run parameters: casurf_run's flags and semantics, and its defaults but
  // for the smaller lattice and horizon (64 x 64 and t_end 10).
  std::string algorithm = "rsm";
  std::int32_t width = 64, height = 64;
  std::uint64_t seed = 1;
  double t_end = 10;
  double dt = 1;
  double y = 0.45;
  double beta = 0.5;
  double hop = 1.0;
  double coverage0 = 0;
  std::uint32_t l_trials = 1;
  unsigned threads = 1;  ///< PNDCA sweep threads; clamped by the quota
  double checkpoint_every = 0;  ///< 0 = every sample

  // Streamed artifacts beyond the always-on report/CSV/checkpoint.
  bool heatmap = false;
  std::uint64_t heatmap_every = 0;  ///< 0 = only at the end
  bool drift_record = false;        ///< stream a drift profile too
  bool trace = false;               ///< worker writes a Chrome-trace JSON

  /// Deterministic fault injection forwarded to the worker (--failpoints
  /// grammar, checked by fail::validate as the CLI checks it).
  /// Operational/testing aid.
  std::string failpoints;

  /// Parse and validate a spec. Unknown members are rejected (a typo in a
  /// knob must not silently run with the default). Throws
  /// std::runtime_error with a client-presentable message on any problem.
  static JobSpec from_json(const obs::json::Value& v);

  /// Re-serialize (spec.json in the job directory; also echoed by the API).
  [[nodiscard]] std::string to_json() const;

  /// Compile the worker command line: `runner` plus every flag this spec
  /// implies, rooted in job directory `dir` (checkpoint, CSV, report, and
  /// optional heatmap/drift artifacts live there). With `resume` the
  /// worker restores from the checkpoint chain first — the daemon passes
  /// it on every restart after a crash.
  [[nodiscard]] std::vector<std::string> to_argv(const std::string& runner,
                                                 const std::string& dir,
                                                 bool resume) const;
};

/// Fixed artifact names inside a job directory.
inline constexpr const char* kJobModelFile = "model.model";
inline constexpr const char* kJobSpecFile = "spec.json";
inline constexpr const char* kJobCheckpoint = "job.ck";
inline constexpr const char* kJobCsv = "coverage.csv";
inline constexpr const char* kJobReport = "report.json";
inline constexpr const char* kJobHeatmapPrefix = "heatmap";
inline constexpr const char* kJobDrift = "drift.json";
inline constexpr const char* kJobLog = "worker.log";
inline constexpr const char* kJobLogRotated = "worker.log.1";
inline constexpr const char* kJobEvents = "events.jsonl";
inline constexpr const char* kJobTrace = "trace.json";

}  // namespace casurf::serve
