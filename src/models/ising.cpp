#include "models/ising.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "rng/counter_rng.hpp"

namespace casurf::models {

namespace {

/// Glauber flip rate for a spin whose flip changes the energy by
/// dE = 2 J (2h - 4), h = aligned neighbors.
double glauber_rate(double beta_j, int aligned, double attempt_rate) {
  const double de_over_j = 2.0 * (2.0 * aligned - 4.0);
  return attempt_rate / (1.0 + std::exp(beta_j * de_over_j));
}

}  // namespace

IsingModel make_ising(double beta_j, double attempt_rate) {
  if (!(beta_j >= 0) || !(attempt_rate > 0)) {
    throw std::invalid_argument("make_ising: need beta_j >= 0 and attempt_rate > 0");
  }
  SpeciesSet species({"-", "+"});
  const Species down = species.require("-");
  const Species up = species.require("+");

  ReactionModel model(std::move(species));
  const Vec2 dirs[] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};

  // For each spin value and each of the 16 neighbor arrangements, one
  // reaction type whose rate is the Glauber rate for that arrangement's
  // aligned-neighbor count. The 16 arrangements of a count h are disjoint
  // patterns, so the *effective* flip rate at any site is exactly w(dE).
  for (const Species spin : {up, down}) {
    const Species flipped = spin == up ? down : up;
    for (unsigned arrangement = 0; arrangement < 16; ++arrangement) {
      int aligned = 0;
      std::vector<Transform> transforms = {exact({0, 0}, spin, flipped)};
      for (int d = 0; d < 4; ++d) {
        const bool neighbor_aligned = (arrangement >> d) & 1u;
        if (neighbor_aligned) ++aligned;
        transforms.push_back(
            require(dirs[d], species_bit(neighbor_aligned ? spin : flipped)));
      }
      model.add(ReactionType(
          std::string("flip_") + (spin == up ? "up_" : "down_") +
              std::to_string(arrangement),
          glauber_rate(beta_j, aligned, attempt_rate), std::move(transforms)));
    }
  }
  return IsingModel{std::move(model), down, up, beta_j};
}

double IsingModel::staggered_magnetization(const Configuration& cfg) const {
  const Lattice& lat = cfg.lattice();
  std::int64_t sum = 0;
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    const Vec2 p = lat.coord(s);
    const int spin = cfg.get(s) == up ? 1 : -1;
    sum += ((p.x + p.y) % 2 == 0) ? spin : -spin;
  }
  return static_cast<double>(sum) / static_cast<double>(cfg.size());
}

double IsingModel::energy_per_site(const Configuration& cfg) const {
  const Lattice& lat = cfg.lattice();
  std::int64_t sum = 0;
  // Count each bond once via the +x and +y neighbors.
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    const int spin = cfg.get(s) == up ? 1 : -1;
    const int right = cfg.get(lat.neighbor(s, {1, 0})) == up ? 1 : -1;
    const int below = cfg.get(lat.neighbor(s, {0, 1})) == up ? 1 : -1;
    sum += spin * (right + below);
  }
  return -static_cast<double>(sum) / static_cast<double>(cfg.size());
}

CaRule heat_bath_rule(const IsingModel& ising, std::uint64_t seed) {
  return [up = ising.up, down = ising.down, beta_j = ising.beta_j, seed](
             const Configuration& prev, SiteIndex s, std::uint64_t step) -> Species {
    const Lattice& lat = prev.lattice();
    int field = 0;  // sum of neighbor spins
    for (const Vec2 d : Lattice::von_neumann_offsets()) {
      field += prev.get(lat.neighbor(s, d)) == up ? 1 : -1;
    }
    // Heat bath: P(sigma = +1 | field) = 1 / (1 + exp(-2 beta J field)).
    const double p_up = 1.0 / (1.0 + std::exp(-2.0 * beta_j * field));
    CounterRng rng(seed, CounterRng::key(step, s));
    return rng.next_double() < p_up ? up : down;
  };
}

}  // namespace casurf::models
