#include "parallel/domain_decomp.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

namespace {

constexpr int kTagHaloRight = 1;  // right neighbor's boundary columns -> seam owner
constexpr int kTagSeamBack = 2;   // seam owner's updates -> right neighbor

/// Copy `count` wrapped columns starting at `x_begin` into a flat buffer
/// (column-major: count * height species).
void pack_columns(const Configuration& cfg, std::int32_t x_begin, std::int32_t count,
                  std::vector<Species>& buf) {
  const Lattice& lat = cfg.lattice();
  buf.resize(static_cast<std::size_t>(count) * lat.height());
  std::size_t k = 0;
  for (std::int32_t c = 0; c < count; ++c) {
    for (std::int32_t y = 0; y < lat.height(); ++y) {
      buf[k++] = cfg.get(Vec2{x_begin + c, y});
    }
  }
}

void unpack_columns(Configuration& cfg, std::int32_t x_begin, std::int32_t count,
                    const std::vector<Species>& buf) {
  const Lattice& lat = cfg.lattice();
  std::size_t k = 0;
  for (std::int32_t c = 0; c < count; ++c) {
    for (std::int32_t y = 0; y < lat.height(); ++y) {
      cfg.set(Vec2{x_begin + c, y}, buf[k++]);
    }
  }
}

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

  const double total_k = model.total_rate();
  const auto rounds = static_cast<std::uint64_t>(std::ceil(params.t_end * total_k));
  const auto sample_every = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(params.sample_dt * total_k)));

  DomainDecompResult result;
  result.rounds = rounds;
  result.coverage.assign(model.species().size(), {});
  std::mutex result_mutex;
  std::atomic<std::uint64_t> total_trials{0};

  result.comm = Communicator::run(p, [&](Communicator::Rank& rank) {
    const int me = rank.rank();
    obs::TraceRing* lane = rank.trace();
    const std::int32_t x0 = me * w;
    const std::int32_t x1 = x0 + w;
    const int right = (me + 1) % p;
    const int left = (me + p - 1) % p;

    Configuration cfg = initial;  // full-lattice copy; authoritative for [x0, x1)
    Xoshiro256 rng(params.seed ^ mix64(static_cast<std::uint64_t>(me) + 1));
    std::vector<Species> halo_buf, seam_buf;
    std::uint64_t my_trials = 0;

    const auto trial_in = [&](std::int32_t col_begin, std::int32_t col_count) {
      const auto x = static_cast<std::int32_t>(
          col_begin + static_cast<std::int32_t>(uniform_below(rng, col_count)));
      const auto y = static_cast<std::int32_t>(uniform_below(rng, lat.height()));
      const SiteIndex s = lat.index(lat.wrap({x, y}));
      const ReactionIndex rt = model.sample_type(rng);
      const ReactionType& reaction = model.reaction(rt);
      if (reaction.enabled(cfg, s)) reaction.execute(cfg, s);
      ++my_trials;
    };

    for (std::uint64_t round = 0; round < rounds; ++round) {
      if (p == 1) {
        // Degenerate case: plain RSM, one trial per site.
        for (SiteIndex i = 0; i < lat.size(); ++i) trial_in(0, lat.width());
      } else {
        // Phase 1: strip interior, anchors in [x0 + r, x1 - r); their
        // neighborhoods stay inside the strip, so all ranks run freely.
        {
          obs::ScopedSpan span(lane, "dd/interior",
                               static_cast<double>(round) / total_k, round);
          const std::int32_t interior = w - 2 * r;
          for (std::int32_t i = 0; i < interior * lat.height(); ++i) {
            trial_in(x0 + r, interior);
          }
        }
        rank.barrier();

        // Phase 2: seams. Each rank owns the seam at its right boundary.
        // Push my left-boundary columns [x0, x0 + 2r) to the left neighbor,
        // then simulate my seam with the fresh halo from the right.
        pack_columns(cfg, x0, 2 * r, halo_buf);
        rank.send_span(left, kTagHaloRight, halo_buf.data(), halo_buf.size());
        halo_buf.assign(static_cast<std::size_t>(2 * r) * lat.height(), 0);
        rank.recv_span(right, kTagHaloRight, halo_buf.data(), halo_buf.size());
        unpack_columns(cfg, x1, 2 * r, halo_buf);

        // Seam anchors: columns [x1 - r, x1 + r); touch [x1 - 2r, x1 + 2r).
        {
          obs::ScopedSpan span(lane, "dd/seam",
                               static_cast<double>(round) / total_k, round);
          for (std::int32_t i = 0; i < 2 * r * lat.height(); ++i) {
            trial_in(x1 - r, 2 * r);
          }
        }

        // Return the neighbor's updated columns [x1, x1 + 2r).
        pack_columns(cfg, x1, 2 * r, seam_buf);
        rank.send_span(right, kTagSeamBack, seam_buf.data(), seam_buf.size());
        seam_buf.assign(static_cast<std::size_t>(2 * r) * lat.height(), 0);
        rank.recv_span(left, kTagSeamBack, seam_buf.data(), seam_buf.size());
        unpack_columns(cfg, x0, 2 * r, seam_buf);
        rank.barrier();
      }

      // Sampling: global coverage from the authoritative columns only.
      if (round % sample_every == 0 || round + 1 == rounds) {
        std::vector<std::uint64_t> local(model.species().size(), 0);
        for (std::int32_t x = x0; x < x1; ++x) {
          for (std::int32_t y = 0; y < lat.height(); ++y) {
            ++local[cfg.get(Vec2{x, y})];
          }
        }
        std::vector<double> fractions(local.size());
        for (std::size_t sp = 0; sp < local.size(); ++sp) {
          fractions[sp] = static_cast<double>(rank.allreduce_sum(local[sp])) /
                          static_cast<double>(lat.size());
        }
        if (me == 0) {
          std::lock_guard lock(result_mutex);
          result.times.push_back(static_cast<double>(round + 1) / total_k);
          for (std::size_t sp = 0; sp < fractions.size(); ++sp) {
            result.coverage[sp].push_back(fractions[sp]);
          }
        }
      }
    }
    total_trials.fetch_add(my_trials, std::memory_order_relaxed);
  }, params.sinks);

  result.total_trials = total_trials.load();
  return result;
}

}  // namespace casurf
