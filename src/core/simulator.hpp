#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/state_io.hpp"
#include "lattice/configuration.hpp"
#include "model/reaction_model.hpp"
#include "obs/phase.hpp"
#include "obs/sinks.hpp"
#include "obs/spatial.hpp"
#include "rng/distributions.hpp"

namespace casurf {

class Partition;

/// How simulated time advances per trial (paper section 3).
enum class TimeMode {
  /// Draw each increment from the exponential distribution 1 - exp(-N K t),
  /// the Master-Equation-faithful choice.
  kStochastic,
  /// Fixed increment 1 / (N K): RSM read as a time discretization of the
  /// Master Equation. Cheaper and variance-free; same mean.
  kDeterministic,
};

/// The time rule of the trial-based simulators (RSM, NDCA, PNDCA,
/// L-PNDCA): each trial advances simulated time by an Exp(N K) draw, or by
/// its mean 1 / (N K) under TimeMode::kDeterministic, which draws nothing.
/// RSM and NDCA take one increment per trial. PNDCA's chunk sweeps and
/// L-PNDCA's batches read no clock between their trials, so they advance
/// once per sweep or batch by the trials' summed time: one Gamma(n, N K)
/// draw, the law of n iid Exp(N K) draws.
class TrialClock {
 public:
  TrialClock(TimeMode mode, SiteIndex sites, double total_rate)
      : mode_(mode), rate_nk_(static_cast<double>(sites) * total_rate) {}

  /// One trial's time increment.
  template <class Rng>
  [[nodiscard]] double increment(Rng& rng) const {
    return mode_ == TimeMode::kStochastic ? exponential(rng, rate_nk_) : 1.0 / rate_nk_;
  }

  /// Advance `time` over n trials: one Gamma(n, N K) draw, which for n = 1
  /// is increment() bit for bit, or n / (N K) in one addition. n = 0 draws
  /// nothing.
  template <class Rng>
  void advance(double& time, std::uint64_t n, Rng& rng) const {
    if (n == 0) return;
    time += mode_ == TimeMode::kStochastic ? gamma(rng, static_cast<double>(n), rate_nk_)
                                           : static_cast<double>(n) / rate_nk_;
  }

 private:
  TimeMode mode_;
  double rate_nk_;  // N * K: the rate of the per-trial waiting time
};

/// Execution statistics common to all simulators.
struct SimCounters {
  std::uint64_t trials = 0;    ///< attempted (site, reaction-type) selections
  std::uint64_t executed = 0;  ///< trials that fired an enabled reaction
  std::uint64_t steps = 0;     ///< completed natural steps (MC steps / events)
  std::vector<std::uint64_t> executed_per_type;

  [[nodiscard]] double acceptance() const {
    return trials == 0 ? 0.0 : static_cast<double>(executed) / static_cast<double>(trials);
  }
};

/// Common interface of every simulation algorithm in the library, exact
/// (DMC) and approximate (CA family) alike. A simulator owns its
/// configuration and advances it through simulated time; the reaction model
/// is borrowed and must outlive the simulator.
class Simulator {
 public:
  virtual ~Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Perform one natural step of the algorithm: one MC step (N trials) for
  /// trial-based methods, one executed event for event-driven DMC, one
  /// synchronous sweep for cellular automata.
  virtual void mc_step() = 0;

  /// Current simulated time.
  [[nodiscard]] double time() const { return time_; }

  /// Advance until time() >= t (no-op if already past). Granularity is one
  /// natural step; trial-based methods may overshoot by up to one MC step.
  /// In an absorbing state (no reaction can ever fire again) implementations
  /// jump time() to t rather than loop forever.
  virtual void advance_to(double t);

  [[nodiscard]] const Configuration& configuration() const { return config_; }
  [[nodiscard]] Configuration& configuration() { return config_; }

  [[nodiscard]] const ReactionModel& model() const { return model_; }
  [[nodiscard]] const SimCounters& counters() const { return counters_; }

  /// Human-readable algorithm name ("RSM", "PNDCA", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Attach observation sinks, replacing whatever was attached before; a
  /// null member turns that sink off, so attach({}) detaches everything.
  /// Probes are resolved by name once, here, and hold raw pointers; the hot
  /// path then pays one branch per probe for a sink that is off. The base
  /// resolves every phase listed in phases_ (its timer, and its span ring:
  /// ring 0 for the simulation thread, ring k + 1 for PNDCA's worker k) and
  /// the spatial probe; an override adds counters and histograms. Probes
  /// never read or write simulation state or RNG streams, so trajectories
  /// are bit-identical whatever is attached. The sinks are borrowed and
  /// must outlive the simulator (or be detached first).
  virtual void attach(const obs::Sinks& sinks);

  [[nodiscard]] const obs::Sinks& sinks() const { return sinks_; }

  /// The partition that spatial accounting (per-chunk activity, seam
  /// classification) should aggregate on, or nullptr for unpartitioned
  /// algorithms (DMC, NDCA). Multi-partition simulators return their first
  /// partition — chunk aggregation is a diagnostic view, not a trajectory
  /// input, and one representative seam geometry is what a heatmap can
  /// meaningfully overlay.
  [[nodiscard]] virtual const Partition* spatial_partition() const { return nullptr; }

  /// Serialize the full simulator state — configuration, simulated time,
  /// counters, RNG state, and every algorithm-internal structure whose
  /// content is not a pure function of the configuration (event queues,
  /// enabled-set orderings, sweep counters). Overrides call the base first,
  /// then append their own sections; restore_state on an identically
  /// constructed simulator must reproduce the trajectory bit for bit.
  virtual void save_state(StateWriter& w) const;

  /// Inverse of save_state. The simulator must have been constructed with
  /// the same model, lattice, and constructor options as the saved one
  /// (the checkpoint layer validates this); throws StateFormatError on a
  /// stream that is truncated, misaligned, or inconsistent with them.
  virtual void restore_state(StateReader& r);

  /// Recompute every derived structure from the raw configuration and
  /// compare (see StateAuditor). Appends one AuditIssue per mismatch; when
  /// `repair`, also rebuilds the offending structure in place. The base
  /// implementation audits the configuration's per-species counts;
  /// overrides add their own caches.
  virtual void audit_derived_state(AuditReport& report, bool repair);

 protected:
  Simulator(const ReactionModel& model, Configuration config)
      : model_(model), config_(std::move(config)) {
    model.validate();
    counters_.executed_per_type.assign(model.num_reactions(), 0);
  }

  void record_execution(ReactionIndex rt) {
    ++counters_.executed;
    ++counters_.executed_per_type[rt];
  }

  /// For restore_state overrides that read derived state which must agree
  /// with the restored configuration: runs the audit without repair and
  /// throws StateFormatError carrying the first issue (a checkpoint whose
  /// bookkeeping contradicts its own lattice is corrupt, e.g. one written
  /// under a model whose reaction types were reordered since).
  void reject_inconsistent_restore();

  const ReactionModel& model_;
  Configuration config_;
  SimCounters counters_;
  double time_ = 0.0;
  obs::Sinks sinks_;
  obs::Phases phases_;         ///< the simulator's phases; attach() resolves them
  obs::SpatialProbe spatial_;  ///< per-site activity; null map = off
};

}  // namespace casurf
