#pragma once

#include <cstdint>
#include <vector>

#include "lattice/configuration.hpp"
#include "model/reaction_model.hpp"

namespace casurf {

/// Parameters of the Segers-style chunked parallel DMC baseline (paper
/// section 3): the lattice is cut into `ranks` vertical strips, each
/// simulated by RSM with its own generator; the seam between two strips is
/// simulated by the strip on its left once every strip has finished its
/// interior.
struct DomainDecompParams {
  int ranks = 2;
  std::uint64_t seed = 1;
  double t_end = 10.0;
  double sample_dt = 1.0;
};

/// Output of a domain-decomposed run: the coverage time series (one row per
/// species) plus the halo traffic a distributed run would send — the
/// "amount of work vs amount of communication" trade-off (volume/boundary
/// ratio) the paper attributes to Segers. The strips share one lattice, so
/// the traffic is counted, not copied: for p > 1, each strip sends two
/// messages per round (its left boundary to the seam owner, the seam back
/// to its right neighbour) of 2r * H species each.
struct DomainDecompResult {
  std::vector<double> times;
  std::vector<std::vector<double>> coverage;  ///< [species][sample]
  std::uint64_t halo_messages = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t total_trials = 0;
  std::uint64_t rounds = 0;
};

/// Run the strip-decomposed RSM to `t_end`. Strip width must be a multiple
/// of the rank count and wide enough (> 4 * model radius) that seam zones
/// of neighboring strips cannot conflict. Every round is one MC step: the
/// strip interiors run concurrently on a ThreadPool, then, after that
/// join, all seams run concurrently (each owned by the strip on its left,
/// reading its right neighbour's columns in place), so no two concurrent
/// reactions ever touch a common site. Strip k draws from its own
/// generator, seeded `seed ^ mix64(k + 1)`, so the strips, not the thread
/// count, fix the trajectory. With one rank a round is plain RSM.
///
/// Coverage is sampled at t = 0, after every round that ends a multiple of
/// `sample_dt` (rounded to whole rounds), and after the final round.
/// Throws std::invalid_argument on a bad rank count or strip width, a
/// non-finite or negative `t_end` (or one whose round count exceeds
/// 2^63), or a non-finite or non-positive `sample_dt`.
[[nodiscard]] DomainDecompResult run_domain_decomp(const ReactionModel& model,
                                                   const Configuration& initial,
                                                   const DomainDecompParams& params);

}  // namespace casurf
