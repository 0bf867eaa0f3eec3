#pragma once

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"
#include "dmc/enabled_set.hpp"
#include "dmc/recheck_visit.hpp"
#include "model/probe_plans.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// Variable Step Size Method (Gillespie's direct method specialised to
/// lattices): event-driven exact DMC. Keeps, per reaction type, the set of
/// anchor sites where the type is enabled; each mc_step() executes exactly
/// one reaction and advances time by Exp(sum of enabled rates). Included as
/// the rejection-free counterpart of RSM — same Master Equation kinetics,
/// different cost profile (bookkeeping instead of failed trials).
class VssmSimulator final : public Simulator {
 public:
  VssmSimulator(const ReactionModel& model, Configuration config, std::uint64_t seed);

  void mc_step() override;
  void advance_to(double t) override;
  [[nodiscard]] std::string name() const override { return "VSSM"; }

  /// Sum over types of k_i * |enabled_i|: the total propensity R(S). The
  /// scan fills the cumulative band table the next event draws its type
  /// from, so the event loop sums the bands once per event.
  [[nodiscard]] double total_enabled_rate() const;

  /// The band table of the last total_enabled_rate() scan: entry i is the
  /// sum of k_j |E_j| over j <= i, and the event draws its type from it
  /// with sample_cumulative.
  [[nodiscard]] const std::vector<double>& type_bands() const { return bands_; }

  /// Number of sites where reaction type i is currently enabled.
  [[nodiscard]] std::size_t enabled_count(ReactionIndex i) const {
    return enabled_[i].size();
  }

  /// True when no reaction is enabled (absorbing state).
  [[nodiscard]] bool stalled() const { return total_enabled_rate() <= 0.0; }

  /// The most recently executed event (valid once counters().executed > 0).
  /// Event-driven analyses — e.g. the Time-Warp rollback study — replay
  /// the exact trajectory from this record.
  struct Event {
    double time = 0;
    ReactionIndex type = 0;
    SiteIndex site = 0;
  };
  [[nodiscard]] const Event& last_event() const { return last_event_; }

  /// Checkpointing. The enabled sets are serialized in their exact internal
  /// order: membership alone is not enough, because event selection samples
  /// a set by dense position, so the order is part of the trajectory.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Recomputes the enabled sets from the configuration and compares
  /// membership; repair rebuilds every set (in raster order — consistent,
  /// though not the historical order a never-corrupted run would carry).
  /// The sets are the only derived state: rechecks read the configuration.
  void audit_derived_state(AuditReport& report, bool repair) override;

  /// Test-only mutable access for injecting cache corruption in the audit
  /// suite. Never used by the library itself.
  [[nodiscard]] EnabledSet& mutable_enabled_for_test(ReactionIndex i) {
    return enabled_[i];
  }

 private:
  void rebuild_enabled();
  void execute_event();

  Xoshiro256 rng_;
  std::vector<EnabledSet> enabled_;  // one per reaction type
  mutable std::vector<double> bands_;  // cumulative k_i |E_i|, filled by total_enabled_rate()
  Rechecker rechecker_;
  std::vector<RecheckVisit> visits_;  // the event's rechecks, reserved at construction
  Event last_event_;
  obs::Phase step_phase_{phases_, "vssm/step"};
  obs::Phase rate_scan_phase_{phases_, "vssm/rate_scan"};
};

}  // namespace casurf
