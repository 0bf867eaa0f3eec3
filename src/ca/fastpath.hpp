#pragma once

#include <cstdint>
#include <vector>

#include "model/probe_plans.hpp"

namespace casurf {

// The trial kernel of the PNDCA family, plus the per-site enabled-type
// bitset the enabled-rate cache (ca/rate_cache.hpp) keeps through the
// shared recheck routine (model/probe_plans.hpp).

/// Per-site "which reaction types are enabled here" bitset, site-major and
/// word-packed so one trial test costs a single load and bit test. Like
/// the bitplanes this is derived state — rebuilt from the planes via the
/// probe plans and kept in sync by the visits of Rechecker::after_fire.
class EnabledTypeSet {
 public:
  /// Full recompute: every (site, type) pair probed against the planes.
  void rebuild(const SpeciesBitplanes& planes, const ProbePlans& probes);

  [[nodiscard]] bool test(SiteIndex s, ReactionIndex t) const {
    return (bits_[static_cast<std::size_t>(s) * words_per_site_ + (t >> 6)] >>
            (t & 63u)) & 1u;
  }

  /// Sets the bit and reports whether it actually flipped — the common
  /// no-change case skips the store, and callers keeping mirrors of this
  /// predicate (the enabled-rate cache) can skip their own fold too.
  bool assign(SiteIndex s, ReactionIndex t, bool on) {
    std::uint64_t& w =
        bits_[static_cast<std::size_t>(s) * words_per_site_ + (t >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (t & 63u);
    if (((w & bit) != 0) == on) return false;
    w ^= bit;
    return true;
  }

 private:
  std::size_t words_per_site_ = 1;
  std::vector<std::uint64_t> bits_;
};

/// The random half of a chunk sweep: for sites[0..n) evaluate the two
/// counter-RNG draws of each site's stream (keyed by (sweep, site), draw
/// order flip-then-slot) and sample the reaction type through the alias
/// table, writing out[i] for sites[i]. The draws depend only on the chunk
/// schedule, never on the lattice, so a whole span is sampled before any
/// of its trials is tested. `seed_hash` is CounterRng::seed_hash(seed).
///
/// The draw order is pinned: the stream's FIRST value feeds the alias flip
/// and the SECOND the slot. (Historic accident — the original per-site
/// loop drew both inside one call's argument list, which the compiler
/// evaluated right to left — but every stored trajectory reproduces
/// exactly this assignment.)
///
/// Runs 8 lanes wide under AVX-512 when the CPU has it (runtime-dispatched);
/// the lane arithmetic — mix64, unit-interval mapping, alias slot/flip — is
/// exact in both versions, so the types are identical either way.
void sample_types(std::uint64_t sweep, std::uint64_t seed_hash, const SiteIndex* sites,
                  std::size_t n, const AliasTable& alias, ReactionIndex* out);

/// One passing trial of batch_trials: `index` into its site list plus the
/// reaction type the site's stream sampled.
struct TrialHit {
  std::uint32_t index;
  ReactionIndex type;
};

/// sample_types filtered through a pre-sweep enabled-type bitset: appends
/// one TrialHit per site whose sampled type is enabled there to `out`
/// (capacity >= n), in site-list order, and returns the count. Exact for a
/// chunk whose partition satisfies the non-overlap rule, where no in-chunk
/// execution changes another same-chunk trial's outcome.
[[nodiscard]] std::size_t batch_trials(std::uint64_t sweep, std::uint64_t seed_hash,
                                       const SiteIndex* sites, std::size_t n,
                                       const AliasTable& alias,
                                       const EnabledTypeSet& enabled,
                                       TrialHit* out);

}  // namespace casurf
