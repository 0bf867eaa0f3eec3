#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/species.hpp"
#include "model/reaction_type.hpp"
#include "rng/distributions.hpp"

namespace casurf {

/// Index of a reaction type within a model.
using ReactionIndex = std::uint32_t;

/// The set of reaction types T plus the species domain D: everything that
/// defines a surface-reaction model apart from the lattice geometry and the
/// current configuration. Owns an alias table over the rate constants so
/// "select a reaction type i with probability k_i / K" (the first step of
/// every RSM/NDCA/PNDCA trial) is O(1).
class ReactionModel {
 public:
  explicit ReactionModel(SpeciesSet species);

  /// Add a reaction type; returns its index. The sampling table is rebuilt
  /// here, so a model that is no longer edited is immutable and may be
  /// shared by threads without synchronization.
  ReactionIndex add(ReactionType rt);

  [[nodiscard]] const SpeciesSet& species() const { return species_; }
  [[nodiscard]] std::size_t num_reactions() const { return reactions_.size(); }
  [[nodiscard]] const ReactionType& reaction(ReactionIndex i) const {
    return reactions_.at(i);
  }
  [[nodiscard]] const std::vector<ReactionType>& reactions() const { return reactions_; }

  /// K = sum of all rate constants.
  [[nodiscard]] double total_rate() const { return total_rate_; }

  /// Largest neighborhood radius over all reaction types.
  [[nodiscard]] std::int32_t max_radius_l1() const { return max_radius_; }

  /// O(1) sample of a reaction-type index with probability k_i / K,
  /// given two uniforms in [0,1).
  [[nodiscard]] ReactionIndex sample_type(double u_slot, double u_flip) const {
    return static_cast<ReactionIndex>(alias_.sample(u_slot, u_flip));
  }

  /// The alias table behind sample_type, for samplers that draw whole lanes
  /// at once (the batched trial kernel gathers from its raw arrays).
  [[nodiscard]] const AliasTable& alias_table() const { return alias_; }

  template <class Rng>
  [[nodiscard]] ReactionIndex sample_type(Rng& rng) const {
    return static_cast<ReactionIndex>(alias_.sample(rng));
  }

  /// Throws std::invalid_argument if any transform references a species
  /// outside the domain; called by simulators on construction.
  void validate() const;

 private:
  SpeciesSet species_;
  std::vector<ReactionType> reactions_;
  double total_rate_ = 0.0;
  std::int32_t max_radius_ = 0;
  AliasTable alias_;
};

/// Arrhenius rate constant k = nu * exp(-E / (kB T)). Energies in eV,
/// temperature in K (kB in eV/K). Provided because the paper defines rate
/// constants this way (section 2).
[[nodiscard]] double arrhenius_rate(double prefactor_nu, double activation_energy_ev,
                                    double temperature_k);

}  // namespace casurf
