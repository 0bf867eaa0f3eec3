#include "parallel/domain_decomp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

namespace {

/// One strip's private state: its generator, and the per-species count
/// change of its raw writes since the last merge.
struct Strip {
  Xoshiro256 rng;
  std::vector<std::int64_t> delta;
  std::uint64_t trials = 0;
};

}  // namespace

DomainDecompResult run_domain_decomp(const ReactionModel& model,
                                     const Configuration& initial,
                                     const DomainDecompParams& params) {
  model.validate();
  const Lattice& lat = initial.lattice();
  const int p = params.ranks;
  const std::int32_t r = model.max_radius_l1();
  if (p < 1) throw std::invalid_argument("run_domain_decomp: ranks must be >= 1");
  if (lat.width() % p != 0) {
    throw std::invalid_argument("run_domain_decomp: rank count must divide lattice width");
  }
  const std::int32_t w = lat.width() / p;
  if (p > 1 && w <= 4 * r) {
    throw std::invalid_argument(
        "run_domain_decomp: strips too narrow for the model radius (need width > 4r)");
  }
  if (!std::isfinite(params.t_end) || params.t_end < 0) {
    throw std::invalid_argument("run_domain_decomp: t_end must be finite and >= 0");
  }
  if (!std::isfinite(params.sample_dt) || params.sample_dt <= 0) {
    throw std::invalid_argument("run_domain_decomp: sample_dt must be finite and > 0");
  }

  const double total_k = model.total_rate();
  const double round_count = std::ceil(params.t_end * total_k);
  if (!(round_count < 0x1p63)) {
    throw std::invalid_argument("run_domain_decomp: t_end needs 2^63 or more rounds");
  }
  const auto rounds = static_cast<std::uint64_t>(round_count);
  const auto sample_every = static_cast<std::uint64_t>(
      std::clamp(std::round(params.sample_dt * total_k), 1.0, round_count + 1));

  DomainDecompResult result;
  result.rounds = rounds;
  result.coverage.assign(model.species().size(), {});

  Configuration cfg = initial;
  std::vector<Strip> strips;
  strips.reserve(static_cast<std::size_t>(p));
  for (int k = 0; k < p; ++k) {
    strips.push_back({Xoshiro256(params.seed ^ mix64(static_cast<std::uint64_t>(k) + 1)),
                      std::vector<std::int64_t>(cfg.num_species(), 0)});
  }

  // One trial per anchor slot: a uniform column in [x_begin, x_begin + cols)
  // (wrapped), a uniform row, and a reaction type drawn by rate.
  const auto trials = [&](Strip& strip, std::int32_t x_begin, std::int32_t cols) {
    const std::uint64_t n = static_cast<std::uint64_t>(cols) * lat.height();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto x = static_cast<std::int32_t>(
          x_begin + static_cast<std::int32_t>(uniform_below(strip.rng, cols)));
      const auto y = static_cast<std::int32_t>(uniform_below(strip.rng, lat.height()));
      const SiteIndex s = lat.index(lat.wrap({x, y}));
      const ReactionType& reaction = model.reaction(model.sample_type(strip.rng));
      if (reaction.enabled(cfg, s)) reaction.execute_raw(cfg, s, strip.delta.data());
    }
    strip.trials += n;
  };

  // One phase of a round: every strip runs `cols` columns of anchors from
  // `offset` within it, concurrently. The join is the barrier; after it the
  // strips' species deltas merge into the shared counts.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(std::min({static_cast<unsigned>(p), hardware, ThreadPool::kMaxThreads}));
  const auto phase = [&](std::int32_t offset, std::int32_t cols) {
    pool.parallel_for(strips.size(), [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        trials(strips[k], static_cast<std::int32_t>(k) * w + offset, cols);
      }
    });
    for (Strip& strip : strips) {
      cfg.apply_count_delta(strip.delta.data());
      std::fill(strip.delta.begin(), strip.delta.end(), 0);
    }
  };

  const auto sample = [&](double t) {
    result.times.push_back(t);
    for (std::size_t sp = 0; sp < result.coverage.size(); ++sp) {
      result.coverage[sp].push_back(cfg.coverage(static_cast<Species>(sp)));
    }
  };
  sample(0.0);

  const std::uint64_t halo_bytes_per_message =
      static_cast<std::uint64_t>(2 * r) * lat.height() * sizeof(Species);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (p == 1) {
      phase(0, lat.width());  // plain RSM: one trial per site
    } else {
      // Interiors: anchors in [x0 + r, x1 - r), whose neighbourhoods stay
      // inside the strip.
      phase(r, w - 2 * r);
      // Seams: the strip on the left owns anchors in [x1 - r, x1 + r) and
      // touches [x1 - 2r, x1 + 2r), reading its right neighbour's first 2r
      // columns in place. A distributed run would send those columns to
      // the owner and the updated ones back: two messages per strip.
      phase(w - r, 2 * r);
      result.halo_messages += 2 * static_cast<std::uint64_t>(p);
      result.halo_bytes += 2 * static_cast<std::uint64_t>(p) * halo_bytes_per_message;
    }
    if ((round + 1) % sample_every == 0 || round + 1 == rounds) {
      sample(static_cast<double>(round + 1) / total_k);
    }
  }
  for (const Strip& strip : strips) result.total_trials += strip.trials;
  return result;
}

}  // namespace casurf
