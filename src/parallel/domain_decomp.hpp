#pragma once

#include <cstdint>
#include <vector>

#include "lattice/configuration.hpp"
#include "model/reaction_model.hpp"
#include "parallel/msgpass.hpp"

namespace casurf {

/// Parameters of the Segers-style chunked parallel DMC baseline (paper
/// section 3): the lattice is cut into `ranks` vertical strips, each
/// simulated by RSM on its own rank; strip seams are simulated by the
/// left-hand rank after a fresh halo exchange every round.
struct DomainDecompParams {
  int ranks = 2;
  std::uint64_t seed = 1;
  double t_end = 10.0;
  double sample_dt = 1.0;
  /// Observability sinks, forwarded to Communicator::run (null = off). The
  /// tracer additionally gets dd/interior and dd/seam compute spans on
  /// each rank's lane, so the exported timeline shows compute and
  /// communication interleaved per rank. Probes never touch RNG or
  /// lattice state: trajectories are bit-identical either way.
  obs::Sinks sinks;
};

/// Output of a domain-decomposed run: the coverage time series (one row per
/// species) plus the communication counters the overhead analysis needs —
/// this is the "amount of work vs amount of communication" trade-off
/// (volume/boundary ratio) the paper attributes to Segers.
struct DomainDecompResult {
  std::vector<double> times;
  std::vector<std::vector<double>> coverage;  ///< [species][sample]
  Communicator::Stats comm;
  std::uint64_t total_trials = 0;
  std::uint64_t rounds = 0;
};

/// Run the strip-decomposed RSM to `t_end`. Strip width must be a multiple
/// of the rank count and wide enough (> 4 * model radius) that seam zones
/// of neighboring strips cannot conflict. Every round is one MC step:
/// strip interiors run concurrently, then all seams run concurrently after
/// a halo exchange (each seam owned by the rank on its left), so no two
/// concurrent reactions ever touch a common site.
[[nodiscard]] DomainDecompResult run_domain_decomp(const ReactionModel& model,
                                                   const Configuration& initial,
                                                   const DomainDecompParams& params);

}  // namespace casurf
