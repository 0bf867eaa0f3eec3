#pragma once

#include <cstdint>
#include <vector>

#include "model/probe_plans.hpp"

namespace casurf {

// The kernels of the partitioned CA's trial spans. PNDCA runs a span of a
// chunk's sites: sample_types draws every trial's reaction type, then
// enabled_trials tests every trial against the configuration's bytes
// through the probe plans (model/probe_plans.hpp) and their lane table.
// L-PNDCA draws each batch from its own first trial index, in pieces of at
// most 256 trials, with sample_trials, maps the second outputs onto the
// sites of the chunk the batch selected with chunk_sites, and tests each
// piece with the same enabled_trials. A piece's sites may repeat, so a pass
// over it ends after the first hit whose site recurs later in the piece
// (first_recurring_hit); the next pass starts at the trial after it. Plus
// the per-site enabled-type bitset the enabled-rate cache
// (ca/rate_cache.hpp) keeps through the shared recheck routine.

/// Per-site "which reaction types are enabled here" bitset, site-major and
/// word-packed so one trial test costs a single load and bit test. Derived
/// state — built from species bitplanes of the configuration via the probe
/// plans and kept in sync by the visits of Rechecker::after_fire.
class EnabledTypeSet {
 public:
  /// Full recompute from the planes, a lattice row per type at a time
  /// (ProbePlans::for_each_enabled).
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

/// The random half of a chunk sweep: for sites[0..n) draw each site's
/// reaction type from its counter stream, keyed by (sweep, site), writing
/// out[i] for sites[i]. The draws depend only on the chunk schedule, never
/// on the lattice, so a whole span is sampled before any of its trials is
/// tested. `seed_hash` is CounterRng::seed_hash(seed).
///
/// The draw law: the site's stream word is
/// seed_hash ^ mix64(CounterRng::step_word(sweep) + site), and its first
/// output r = CounterRng::nth(word, 1) = mix64(word + golden) draws the type
/// through AliasTable::sample_bits: the slot is (hi32(r) * size) >> 32, kept
/// iff lo32(r) is below the slot's 32-bit threshold. Two mix64 per trial.
///
/// Runs 8 lanes wide under AVX-512 when the CPU has it (runtime-dispatched),
/// with the alias table in registers when it has at most 16 columns; the
/// lane arithmetic is exact integer arithmetic, so the types are identical
/// either way.
void sample_types(std::uint64_t sweep, std::uint64_t seed_hash, const SiteIndex* sites,
                  std::size_t n, const AliasTable& alias, ReactionIndex* out);

/// The random half of an L-PNDCA batch: the same lanes as sample_types,
/// with trial index first + i in place of a site as the key word. Trial t of
/// MC step `step` owns the stream word of (step, t); its first output
/// samples types[i] as sample_types does, and its second,
/// CounterRng::nth(word, 2), goes to draws[i] raw, for chunk_sites to map
/// onto whichever chunk the trial's batch selects. Three mix64 per trial.
/// The draws depend on neither the lattice, L nor the chunk, so any run of
/// trial indices draws the same values, whichever call draws them.
/// `seed_hash` is CounterRng::seed_hash(seed). Runtime-dispatched like
/// sample_types, and exact in both versions.
void sample_trials(std::uint64_t step, std::uint64_t seed_hash, std::uint64_t first,
                   std::size_t n, const AliasTable& alias, ReactionIndex* types,
                   std::uint64_t* draws);

/// The largest relative error in a reaction type's draw probability that
/// PNDCA and L-PNDCA accept from the 32-bit flip of sample_types and
/// sample_trials.
inline constexpr double kMaxDrawError = 1e-3;

/// Throws std::invalid_argument, its message prefixed by `who`, naming the
/// first reaction type of positive rate whose probability under
/// AliasTable::sample_bits is off its share k_i / K by more than
/// kMaxDrawError of the share. Every share above about
/// 2^-32 / (kMaxDrawError * |T|) passes; a share below 2^-32 / |T| is never
/// drawn and always fails. RSM, VSSM and NDCA draw from 53-bit doubles and
/// take such models.
void require_draw_resolution(const ReactionModel& model, const char* who);

/// The scalar lanes of sample_trials: its reference and its tail.
void sample_trials_scalar(std::uint64_t step, std::uint64_t seed_hash, std::uint64_t first,
                          std::size_t n, const AliasTable& alias, ReactionIndex* types,
                          std::uint64_t* draws);

/// The position of a raw draw in a chunk of `size` sites: (draw * size) >>
/// 64, the 64-bit multiply-shift of uniform_below.
[[nodiscard]] inline std::uint32_t chunk_position(std::uint64_t draw, std::uint32_t size) {
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint32_t>((static_cast<u128>(draw) * size) >> 64);
}

/// The sites raw draws select in a chunk: out[i] =
/// chunk[chunk_position(draws[i], size)] for i < n, where `chunk` lists the
/// chunk's `size` sites. Exact for every size up to 2^32 - 1. Runs 8 lanes
/// wide under AVX-512 for n >= 8: each lane computes its multiply-shift and
/// gathers its site from the chunk list by the 64-bit position.
void chunk_sites(const std::uint64_t* draws, std::size_t n, const SiteIndex* chunk,
                 std::uint32_t size, SiteIndex* out);

/// Where a pass over a span whose sites may repeat must end: the least
/// k < count whose hit's site sites[hits[k]] occurs again among
/// sites[hits[k] + 1, n), or count when no hit's site recurs. `hits` holds
/// count ascending indices below n, as enabled_trials writes them. A repeat
/// whose earlier trial is not a hit does not count: that trial writes
/// nothing. Runs under AVX-512 when the CPU has it, comparing a hit's site
/// with 16 later sites per instruction; the answer is the same either way.
[[nodiscard]] std::size_t first_recurring_hit(const SiteIndex* sites, std::size_t n,
                                              const std::uint32_t* hits, std::size_t count);

/// The deterministic half of a chunk sweep: writes to hits[] the indices
/// i, ascending, whose reaction type types[i] is enabled at sites[i] on the
/// bytes of `config`, and returns how many it wrote. `hits` must hold n
/// entries. `probes` must be compiled for config's lattice.
///
/// Exactly ReactionType::enabled per trial, against the configuration as
/// it stands: the caller commits the hits afterwards, which is the serial
/// loop's answer whenever no trial of the span writes a site another one
/// reads (the block rule) and no hit's site recurs later in the span (see
/// PartitionedSimulator::run_trials).
///
/// Runs 8 lanes wide under AVX-512 when the CPU has it, dispatched at
/// runtime like sample_types. Each lane takes its anchor's row from the
/// lattice's reciprocal, exactly, and reads each probed byte from the
/// aligned 4-byte word that holds it; the last word of a lattice whose size
/// is not a multiple of 4 is read from 4 bytes before the end instead, so
/// no lane reads outside the configuration. Lattices of width 1, of fewer
/// than 4 sites or of more than 2^31 sites take the scalar lanes.
[[nodiscard]] std::size_t enabled_trials(const ProbePlans& probes,
                                         const Configuration& config,
                                         const SiteIndex* sites,
                                         const ReactionIndex* types, std::size_t n,
                                         std::uint32_t* hits);

/// The scalar lanes of enabled_trials: its reference and its tail.
[[nodiscard]] std::size_t enabled_trials_scalar(const ProbePlans& probes,
                                                const Configuration& config,
                                                const SiteIndex* sites,
                                                const ReactionIndex* types,
                                                std::size_t n, std::uint32_t* hits);

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
