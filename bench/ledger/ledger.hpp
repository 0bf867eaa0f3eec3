#pragma once

// casurf_ledger — the repository's wall-clock and accuracy benchmark.
//
// The end-to-end pass launches casurf_run processes and times each from
// exec to exit; the traced pass times calls into the public library from
// the outside and harvests the timers casurf_run already writes to its
// casurf-run-report/1 file. Nothing here probes inside src/ or apps/.
// See README.md in this directory for the metrics and how to run it.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ledger {

// --- Workloads and configurations -----------------------------------------

struct Workload {
  std::string name;
  std::string why;
  std::string model;  ///< casurf_run --model
  double y;           ///< ZGB CO fraction (0 = model default)
  double coverage0;   ///< initial particle coverage (0 = empty lattice)
  double t_end;
  double dt;
};

/// The three named workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Lattice side: 500, or 64 when CASURF_BENCH_FAST=1 (the repo's smoke
/// convention), so the ctest can run every workload in seconds.
[[nodiscard]] int lattice_side();

struct Config {
  std::string name;               ///< metric suffix
  std::vector<std::string> args;  ///< casurf_run --algorithm ... flags
  bool fast_path;  ///< append --fast-path when casurf_run --help lists it
};

/// Timed configurations, in rotation order: vssm (the exact reference),
/// pndca, pndca_fast, lpndca. No launch uses the threaded engine with more
/// than one worker: its workers race to build ReactionModel's lazy alias
/// table in the first sweep (README.md, finding 5), so such launches fail
/// the determinism check in a few percent of runs. The traced pass measures
/// the 4-thread engine in process, where the table is built beforehand.
[[nodiscard]] const std::vector<Config>& timed_configs();
/// T-PNDCA, launched once per run for accuracy only.
[[nodiscard]] const Config& tpndca_config();
/// Set-up probe: the threaded engine on one worker with the fast path, run
/// to --t-end kProbeTime, which is set-up plus one step.
[[nodiscard]] const Config& setup_config();
inline constexpr double kProbeTime = 1e-9;

/// Full casurf_run argument list (without the executable).
[[nodiscard]] std::vector<std::string> run_args(const Workload& w, const Config& c,
                                                std::uint64_t seed, bool fast_flag,
                                                const std::string& csv_path);

// --- casurf_run outputs ----------------------------------------------------

/// The "# N trials, M executed" line casurf_run prints at the end.
struct Summary {
  std::uint64_t trials = 0;
  std::uint64_t executed = 0;
};
[[nodiscard]] std::optional<Summary> parse_summary(std::string_view stdout_text);

/// A coverage CSV: header (time, species...) and numeric rows. Throws
/// std::runtime_error on ragged or non-numeric input.
struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};
[[nodiscard]] Csv parse_csv(std::string_view text);

/// Empty when the CSV has t_end/dt + 1 rows, else the reason.
[[nodiscard]] std::string check_rows(const Csv& csv, double t_end, double dt);
/// Empty when every row's coverages sum to 1 within 1e-9 beyond the
/// rounding of the CSV's 6 significant digits, else the first bad row.
[[nodiscard]] std::string check_coverage_sums(const Csv& csv);

class Ops;
/// Parse a launch's CSV and count its row and coverage-sum checks in `ops`.
/// Nothing (one failed operation) when the CSV does not parse.
[[nodiscard]] std::optional<Csv> check_csv(Ops& ops, const std::string& what,
                                           std::string_view text, double t_end, double dt);

/// Max over species of |mean coverage over rows with t > t_end/2 minus the
/// same mean in `ref`|. Throws when the two CSVs differ in shape.
[[nodiscard]] double cov_err(const Csv& run, const Csv& ref, double t_end);
/// |executed / executed_ref - 1|.
[[nodiscard]] double rate_bias(std::uint64_t executed, std::uint64_t executed_ref);

// --- Statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Quartiles exactly as Python's statistics.quantiles(v, n=4) (the
/// "exclusive" method); needs at least two values.
[[nodiscard]] std::vector<double> quartiles(std::vector<double> v);
/// (quartile 3 - quartile 1) / median; needs at least two values.
[[nodiscard]] double spread(const std::vector<double>& v);

/// The highest whole percentile, at most p99, that has at least ten samples
/// beyond it (nearest rank), or nothing for ten samples or fewer.
struct Tail {
  double value;
  int percentile;
};
[[nodiscard]] std::optional<Tail> tail(std::vector<double> v);

// --- Operations and metrics ------------------------------------------------

/// Every launch and every output check is one operation.
class Ops {
 public:
  /// Count one operation; a failure is reported on stderr with `what`.
  bool check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  ///< nothing = absent
  std::string absent_reason;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  void absent(std::string name, std::string unit, std::string reason);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> items_;
};

/// One benchmark run: what a ledger file stores and the last stdout line
/// reports.
struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  Ops ops;
  Metrics metrics;  ///< the gated set: end-to-end, or per-layer when traced
  Metrics context;  ///< printed and saved, never gated: accuracy, ratios, self times
  std::vector<std::pair<std::string, std::vector<double>>> samples;
};

/// Print "metric <name> <value> <unit>" lines, the ops counts and, last,
/// the one-line JSON result.
void print_result(const RunResult& r);

/// Write `r` as a one-run casurf-ledger/1 document at `path`, and append it
/// to the collection at `append` when that is non-empty.
void save_result(const RunResult& r, const std::string& path, const std::string& append);

// --- Processes -----------------------------------------------------------------

struct Launch {
  int exit_code = -1;  ///< 128 + signal when killed
  double wall_s = 0;   ///< spawn to reaped
  double maxrss_mb = 0;
  std::string out;     ///< captured stdout
};

/// Spawn argv[0] with stdout captured into `stdout_path` (read back into
/// Launch::out) and stderr into `stdout_path`.err, and wait for it.
[[nodiscard]] Launch launch(const std::vector<std::string>& argv,
                            const std::string& stdout_path);

/// Whether `casurf_run --help` lists --fast-path.
[[nodiscard]] bool help_lists_fast_path(const std::string& exe, const std::string& work);

[[nodiscard]] std::string read_file(const std::string& path);

/// A fixed CPU and memory kernel: 12 million random read-modify-writes over
/// a 250,000-byte array (the size of a 500x500 lattice), with a log() every
/// 16 steps. Returns its wall time in seconds. The end-to-end pass times it
/// before every launch and scales the launch's wall to kReferenceSpeed, which
/// cancels most of the host's speed drift (README.md, "Host-speed scaling").
[[nodiscard]] double calibrate();
/// calibrate() on the host the baseline was taken on.
inline constexpr double kReferenceSpeed = 0.036;

// --- Passes -------------------------------------------------------------------------

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 3;
  double seconds = 35;
  std::string casurf_run;  ///< executable
  std::string out_dir;     ///< ledger_out
  std::string append;      ///< collection to append to ("" = none)
};

[[nodiscard]] RunResult run_e2e(const RunArgs& a);
[[nodiscard]] RunResult run_traced(const RunArgs& a);

// --- Comparison ------------------------------------------------------------------

enum class Verdict { kImproved, kUnchanged, kRegressed, kUnresolved };
[[nodiscard]] const char* verdict_name(Verdict v);

/// The choosing-metrics rule for a change against its parent, `old` and
/// `neu` holding one value per run in pair order:
///  - improved: at least ten pairs, the change wins at least nine tenths of
///    them (ties count for neither), and its median beats the parent's by
///    more than the parent's quartile spread;
///  - unresolved: the parent's relative spread exceeds `bound` (or cannot
///    be measured) and not every new run beats every old run;
///  - regressed: the median is worse than the parent's by more than
///    `bound` of the parent's median;
///  - unchanged otherwise.
[[nodiscard]] Verdict compare_metric(const std::vector<double>& old,
                                     const std::vector<double>& neu, double bound,
                                     bool lower_is_better);

/// `casurf_ledger --compare OLD NEW`: one row per (metric, workload) of the
/// BENCHMARK.json end-to-end list. Returns 1 when any row regressed.
int run_compare(const std::string& old_path, const std::string& new_path,
                const std::string& benchmark_json);

}  // namespace ledger
