#pragma once

#include <cstdint>

#include "core/simulator.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// How NDCA visits the lattice within one step.
enum class SweepOrder {
  kRaster,   ///< the paper's "for each site s": fixed scan order
  kShuffled, ///< fresh random permutation every step (reduces sweep bias)
};

/// Non-Deterministic Cellular Automaton (paper section 4): every site is
/// visited exactly once per step; at each visit a reaction type is drawn
/// with probability k_i / K and executed if enabled. Differs from RSM only
/// in site selection (each site once vs. uniform with replacement) — which
/// is precisely the bias the paper discusses, and which makes NDCA
/// degenerate on some models (Ising, single-file).
class NdcaSimulator final : public Simulator {
 public:
  NdcaSimulator(const ReactionModel& model, Configuration config, std::uint64_t seed,
                TimeMode time_mode = TimeMode::kStochastic,
                SweepOrder order = SweepOrder::kRaster);

  void mc_step() override;
  [[nodiscard]] std::string name() const override { return "NDCA"; }

  /// Checkpointing: besides the RNG, the visit order is saved — under
  /// kShuffled it carries the permutation state the next shuffle starts
  /// from.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

 private:
  void trial_at(SiteIndex s);

  Xoshiro256 rng_;
  TrialClock clock_;
  SweepOrder order_;
  std::vector<SiteIndex> visit_order_;
  obs::Phase step_phase_{phases_, "ndca/step"};
  obs::Phase shuffle_phase_{phases_, "ndca/shuffle"};
};

}  // namespace casurf
