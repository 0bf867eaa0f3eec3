#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/observer.hpp"

namespace casurf::obs {

class TraceRing;

/// Online accuracy-drift monitoring: the paper's central trade is accuracy
/// vs. parallelism — PNDCA buys concurrency by coarsening the partition and
/// raising the trial budget L, and a coarse run can drift away from the
/// exact Master-Equation kinetics (DMC). This layer records a reference
/// profile from an exact run (windowed Welford mean/variance of per-species
/// coverages and the executed-event rate) and compares a later run against
/// it online, raising alarms when the deviation is both material (absolute
/// / relative tolerance) and statistically significant (z-score).
///
/// All statistics are functions of simulated time and the configuration,
/// never of wall clock, and drift monitoring is itself observation-only
/// (bit-exact trajectories with or without a monitor attached).

/// Streaming mean/variance (Welford's algorithm): numerically stable, no
/// sample storage.
class Welford {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when n < 2.
  [[nodiscard]] double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  void reset() { *this = Welford{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

/// Aggregates of one sim-time window [index*width, (index+1)*width).
struct DriftWindow {
  std::uint64_t index = 0;
  double t0 = 0, t1 = 0;   ///< window bounds (t1 = t0 + width)
  std::uint64_t samples = 0;
  std::vector<double> coverage_mean;  ///< per species, model order
  std::vector<double> coverage_var;
  /// Executed events per site per unit sim time, estimated between
  /// consecutive samples; mean/variance over the window's estimates.
  double rate_mean = 0, rate_var = 0;
  std::uint64_t rate_samples = 0;
  /// Windowed nearest-neighbor pair correlations g_ab, one entry per
  /// unordered species pair in stats::pair_index packing. Empty when
  /// correlation tracking is off (scalar-only profiles stay loadable).
  std::vector<double> corr_mean;
  std::vector<double> corr_var;
  /// Axial decay length per species (coverage arity). Empty when off.
  std::vector<double> decay_mean;
  std::vector<double> decay_var;
};

/// A recorded reference: what an exact run looked like, window by window.
/// Serialized as JSON (schema "casurf-drift-profile/1") through the atomic
/// write path.
struct DriftProfile {
  std::string algorithm;
  std::string model;
  double window = 0;  ///< sim-time width of each window (> 0)
  std::vector<std::string> species;
  /// Species-name pairs behind the per-window corr_* arrays, in
  /// stats::pair_index order; empty when correlations were not tracked.
  std::vector<std::pair<std::string, std::string>> corr_pairs;
  std::int32_t corr_max_r = 0;  ///< decay-length truncation radius (0 = off)
  std::vector<DriftWindow> windows;  ///< ascending by index (gaps allowed)

  [[nodiscard]] std::string to_json() const;
  /// Parse; throws std::runtime_error on malformed input or wrong schema.
  static DriftProfile from_json(std::string_view text);
  void write(const std::string& path) const;
  static DriftProfile load(const std::string& path);

  [[nodiscard]] const DriftWindow* find_window(std::uint64_t index) const;
};

/// Shared windowed accumulation driven by Observer::sample: coverage of
/// every species plus the inter-sample executed-event rate, folded into the
/// window owning each sample's timestamp (absolute index floor(t/width), so
/// a resumed run lines up with the reference regardless of start time).
/// Optional spatial statistics for the drift layer. Pair correlations and
/// decay lengths cost O(N) to O(N * max_r) per observation — cheap next to
/// a simulation step, but not free, hence opt-in.
struct CorrelationOptions {
  bool enabled = false;
  std::int32_t max_r = 8;  ///< truncation radius for the decay length
};

class DriftSampler : public Observer {
 public:
  explicit DriftSampler(double window_width, CorrelationOptions corr = {});

  void sample(const Simulator& sim) override;

  [[nodiscard]] double window_width() const { return width_; }
  [[nodiscard]] const CorrelationOptions& correlations() const { return corr_opts_; }
  [[nodiscard]] const std::vector<std::string>& species() const { return species_; }

 protected:
  /// Called each time a window completes (the next sample crossed its upper
  /// bound) and once from close_pending() for a trailing partial window.
  virtual void on_window(const DriftWindow& w) = 0;

  /// Flush the in-progress window, if it holds at least `min_samples`.
  void close_pending(std::uint64_t min_samples);

 private:
  [[nodiscard]] DriftWindow snapshot() const;

  double width_;
  CorrelationOptions corr_opts_;
  std::vector<std::string> species_;  // captured at first sample
  bool started_ = false;
  bool have_prev_ = false;
  double last_t_ = 0;
  std::uint64_t last_executed_ = 0;
  std::uint64_t cur_index_ = 0;
  std::uint64_t cur_samples_ = 0;
  std::vector<Welford> cov_;
  Welford rate_;
  std::vector<Welford> corr_;   // pair_index packing; empty when off
  std::vector<Welford> decay_;  // per species; empty when off
};

/// Records a reference profile (wire as `casurf_run --drift-record`).
class DriftRecorder final : public DriftSampler {
 public:
  explicit DriftRecorder(double window_width, CorrelationOptions corr = {})
      : DriftSampler(window_width, corr) {}

  /// Close the trailing window and hand over the profile, labelled with
  /// the producing algorithm/model. Call once, after the run (windows
  /// holding a single sample are kept: better a noisy reference window
  /// than a silent gap).
  [[nodiscard]] DriftProfile take_profile(std::string algorithm, std::string model);

 private:
  void on_window(const DriftWindow& w) override { windows_.push_back(w); }

  std::vector<DriftWindow> windows_;
};

/// Alarm thresholds. An alarm fires only when a deviation is BOTH material
/// (abs/rel tolerance — guards against significance without relevance) and
/// significant (z-score against the combined standard errors — guards
/// against noise on tiny windows).
struct DriftConfig {
  double z_threshold = 6.0;
  double coverage_abs_tol = 0.02;  ///< minimum |Δcoverage| that can alarm
  double rate_rel_tol = 0.15;      ///< minimum relative rate error
  double rate_floor = 1e-9;        ///< reference rate magnitude floor
  /// Minimum |Δg_ab| that can alarm. g is a ratio against random mixing
  /// (1 = uncorrelated); 0.10 corresponds to a 10-point shift in local
  /// ordering — far above the window-to-window noise on lattices ≥ 64².
  double corr_abs_tol = 0.10;
  /// Minimum |Δxi| (in sites) of the axial decay length.
  double decay_abs_tol = 0.5;
};

struct DriftAlarm {
  std::uint64_t window = 0;  ///< window index
  double t0 = 0, t1 = 0;
  std::string what;  ///< "coverage:<species>", "rate", "corr:<a>,<b>", "decay:<species>"
  double observed = 0, expected = 0;
  double z = 0;
};

/// Compares a live run window-by-window against a recorded reference
/// (wire as `casurf_run --drift-ref`). Window width comes from the profile.
class DriftMonitor final : public DriftSampler {
 public:
  explicit DriftMonitor(DriftProfile reference, DriftConfig config = {});

  /// Close the trailing window (compared only when it has ≥ 2 samples, so a
  /// single straggling sample cannot fake a variance-free alarm) — call
  /// once, after the run.
  void finish();

  /// Emit an instant trace event per alarm into `ring` (nullptr = off).
  void set_trace(TraceRing* ring) { trace_ = ring; }

  [[nodiscard]] const DriftProfile& reference() const { return ref_; }
  [[nodiscard]] const DriftConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<DriftAlarm>& alarms() const { return alarms_; }
  /// Windows compared against a matching reference window.
  [[nodiscard]] std::uint64_t windows_checked() const { return checked_; }
  /// Closed windows with no reference counterpart (run outlived the ref).
  [[nodiscard]] std::uint64_t windows_unmatched() const { return unmatched_; }
  [[nodiscard]] double max_z() const { return max_z_; }

 private:
  void on_window(const DriftWindow& w) override;
  void check(const DriftWindow& run, const DriftWindow& ref);
  void raise(const DriftWindow& run, std::string what, double observed,
             double expected, double z);

  DriftProfile ref_;
  DriftConfig config_;
  TraceRing* trace_ = nullptr;
  std::vector<DriftAlarm> alarms_;
  std::uint64_t checked_ = 0;
  std::uint64_t unmatched_ = 0;
  double max_z_ = 0;
};

}  // namespace casurf::obs
