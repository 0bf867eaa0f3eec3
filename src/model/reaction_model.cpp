#include "model/reaction_model.hpp"

#include <cmath>
#include <stdexcept>

namespace casurf {

ReactionModel::ReactionModel(SpeciesSet species) : species_(std::move(species)) {
  if (species_.size() == 0) {
    throw std::invalid_argument("ReactionModel: species set must be non-empty");
  }
}

ReactionIndex ReactionModel::add(ReactionType rt) {
  total_rate_ += rt.rate();
  if (rt.radius_l1() > max_radius_) max_radius_ = rt.radius_l1();
  reactions_.push_back(std::move(rt));
  std::vector<double> weights;
  weights.reserve(reactions_.size());
  for (const ReactionType& r : reactions_) weights.push_back(r.rate());
  alias_ = AliasTable(weights);
  return static_cast<ReactionIndex>(reactions_.size() - 1);
}

void ReactionModel::validate() const {
  if (reactions_.empty()) {
    throw std::invalid_argument("ReactionModel: no reaction types");
  }
  const SpeciesMask domain = species_.all_mask();
  for (const ReactionType& rt : reactions_) {
    for (const Transform& t : rt.transforms()) {
      if ((t.src & ~domain) != 0) {
        throw std::invalid_argument("ReactionModel: reaction '" + rt.name() +
                                    "' source mask references unknown species");
      }
      if (t.tg != kKeep && t.tg >= species_.size()) {
        throw std::invalid_argument("ReactionModel: reaction '" + rt.name() +
                                    "' target species out of range");
      }
    }
  }
}

double arrhenius_rate(double prefactor_nu, double activation_energy_ev,
                      double temperature_k) {
  constexpr double kBoltzmannEvPerK = 8.617333262e-5;
  if (!(prefactor_nu > 0) || !(temperature_k > 0)) {
    throw std::invalid_argument("arrhenius_rate: nu and T must be positive");
  }
  return prefactor_nu * std::exp(-activation_energy_ev / (kBoltzmannEvPerK * temperature_k));
}

}  // namespace casurf
