#pragma once

#include <cstdint>

#include "core/simulator.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// Random Selection Method (paper section 3): the exact-kinetics DMC
/// baseline every approximate algorithm in this library is measured
/// against. Each *trial* selects a site uniformly, a reaction type with
/// probability k_i / K, executes it if enabled, and advances time; one MC
/// step is N trials.
class RsmSimulator final : public Simulator {
 public:
  RsmSimulator(const ReactionModel& model, Configuration config,
               std::uint64_t seed, TimeMode time_mode = TimeMode::kStochastic);

  void mc_step() override;

  /// Exact-in-time variant: never performs a trial whose waiting time lands
  /// beyond t (memorylessness makes discarding the overshooting draw
  /// exact), so the state observed AT t is unbiased even on tiny lattices.
  void advance_to(double t) override;

  [[nodiscard]] std::string name() const override { return "RSM"; }

  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// One trial (steps 1-5 of the paper's RSM listing). Exposed so tests can
  /// probe the per-trial statistics directly.
  void trial();

 private:
  void select_and_execute();

  Xoshiro256 rng_;
  TrialClock clock_;
  obs::Phase step_phase_{phases_, "rsm/step"};
  obs::Phase advance_phase_{phases_, "rsm/advance"};
};

}  // namespace casurf
