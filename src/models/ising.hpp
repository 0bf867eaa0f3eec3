#pragma once

#include <cstdint>

#include "ca/synchronous_ca.hpp"
#include "lattice/configuration.hpp"
#include "model/reaction_model.hpp"

namespace casurf::models {

/// Glauber (heat-bath) single-spin-flip kinetics of the 2-D Ising model,
/// expressed as surface-reaction types. This is the system for which the
/// paper (section 4, citing Vichniac, Physica D 10, 96 (1984)) notes that
/// naive CA updating "gives degenerate results": fully synchronous
/// heat-bath dynamics decouples the two sublattices and locks into a
/// checkerboard flip-flop instead of the Gibbs state.
///
/// Spin flips depend on the neighborhood through the aligned-neighbor
/// count, which the constant-rate reaction-type formalism expresses by
/// enumerating the C(4,h) neighbor arrangements per count h: 2 spin
/// directions x 16 arrangements = 32 reaction types, each with the Glauber
/// rate w(dE) = attempt_rate / (1 + exp(beta dE)), dE = 2 J (2h - 4).
struct IsingModel {
  ReactionModel model;
  Species down;  ///< spin -1
  Species up;    ///< spin +1
  double beta_j; ///< J / kT used to build the rates

  /// Mean magnetization m = <sigma> in [-1, 1].
  [[nodiscard]] double magnetization(const Configuration& cfg) const {
    return 2.0 * cfg.coverage(up) - 1.0;
  }

  /// Staggered magnetization: the checkerboard order parameter that the
  /// synchronous-CA artifact drives to +-1 while the Gibbs state (above
  /// the AF transition of the *ferromagnet*: always) keeps it near 0.
  [[nodiscard]] double staggered_magnetization(const Configuration& cfg) const;

  /// Energy per site in units of J: -(1/N) sum_<ij> sigma_i sigma_j.
  [[nodiscard]] double energy_per_site(const Configuration& cfg) const;
};

/// Build the 32-type Glauber model at inverse temperature beta_j = J / kT.
/// (The 2-D critical point is beta_j ~ 0.4407.)
[[nodiscard]] IsingModel make_ising(double beta_j, double attempt_rate = 1.0);

/// The degenerate dynamics itself, as a SynchronousCA rule: every site
/// resamples its spin from the heat-bath distribution given the *previous*
/// step's neighbors — the textbook CA parallelization, and exactly what the
/// paper's partitioning is designed to avoid. Step t draws site s's spin from
/// CounterRng(seed, CounterRng::key(t, s)), so a run is deterministic given
/// (seed, steps).
[[nodiscard]] CaRule heat_bath_rule(const IsingModel& ising, std::uint64_t seed);

}  // namespace casurf::models
