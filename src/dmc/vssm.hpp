#pragma once

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"
#include "dmc/enabled_set.hpp"
#include "model/probe_plans.hpp"
#include "obs/metrics.hpp"
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

  void attach(const obs::Sinks& sinks) override;

  /// Sum over types of k_i * |enabled_i|: the total propensity R(S).
  [[nodiscard]] double total_enabled_rate() const;

  /// Number of sites where reaction type i is currently enabled.
  [[nodiscard]] std::size_t enabled_count(ReactionIndex i) const {
    return enabled_[i].size();
  }

  /// True when no reaction is enabled (absorbing state).
  [[nodiscard]] bool stalled() const { return total_enabled_rate() <= 0.0; }

  /// The type-selection kernel of the direct method: given u in [0, 1) and
  /// total == total_enabled_rate() > 0, returns the type with probability
  /// k_i |E_i| / total. Never returns a type whose enabled set is empty
  /// (rounding can push u * total past the last band; the fall-through goes
  /// to the last *nonzero* band). Returns num_reactions() only when no type
  /// is enabled at all. Exposed for the rounding-overflow regression test.
  [[nodiscard]] ReactionIndex select_type(double u, double total) const;

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
  void execute_event(double total_rate);

  Xoshiro256 rng_;
  std::vector<EnabledSet> enabled_;  // one per reaction type
  Rechecker rechecker_;
  Event last_event_;
  obs::Timer* step_timer_ = nullptr;       // vssm/step
  obs::Timer* rate_scan_timer_ = nullptr;  // vssm/rate_scan
};

}  // namespace casurf
