#pragma once

#include <cstdint>
#include <vector>

#include "lattice/bitplanes.hpp"
#include "model/reaction_model.hpp"

namespace casurf {

// The trial kernel of the PNDCA family, plus the incremental-enabledness
// primitives the enabled-rate cache (ca/rate_cache.hpp) is built from.

/// Division-free single-anchor enabledness, precompiled per reaction type.
///
/// ReactionType::enabled() resolves every transform through
/// Lattice::neighbor(), whose coord/wrap arithmetic costs four integer
/// divisions per transform. A ProbePlans is the same predicate compiled
/// against the bitplanes: per
/// type, a flat list of probes whose offsets are pre-wrapped into
/// [0, width) x [0, height) at build time, so evaluation is an add, one
/// conditional subtract per axis, and a bitplane load per species of the
/// source mask. Transforms whose mask covers the whole species domain are
/// dropped at build (every site holds exactly one species), and a type
/// with an empty source mask is marked never-enabled.
class ProbePlans {
 public:
  ProbePlans(const ReactionModel& model, std::int32_t width, std::int32_t height);

  /// Exactly model.reaction(t).enabled(cfg, site at (x, y)), evaluated
  /// against the planes. Requires x in [0, width), y in [0, height).
  [[nodiscard]] bool enabled(const SpeciesBitplanes& planes, ReactionIndex t,
                             std::int32_t x, std::int32_t y) const {
    const TypeSpan& ts = types_[t];
    if (ts.never) return false;
    const Probe* p = probes_.data() + ts.first;
    for (std::uint32_t n = ts.count; n != 0; --n, ++p) {
      std::int32_t px = x + p->dx;
      if (px >= width_) px -= width_;
      std::int32_t py = y + p->dy;
      if (py >= height_) py -= height_;
      bool hit = false;
      for (std::uint32_t k = 0; k < p->num_sp; ++k) {
        hit |= planes.bit(species_[p->first_sp + k], px, py);
      }
      if (!hit) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t num_types() const { return types_.size(); }

  /// Visit every (type, anchor) pair whose enabledness may have changed
  /// after a write at (wx, wy) — the division-free counterpart of
  /// visit_recheck_anchors. The visitor receives (type, anchor index,
  /// enabledness against the planes), so the planes must already be synced
  /// with the configuration (resync the written sites first). Offsets whose
  /// source mask covers the whole domain never flip a result and are
  /// pruned from the table at build, as are never-enabled types: the pruned
  /// visits were no-ops, so the visited state converges identically.
  ///
  /// `old_mask` / `new_mask` are the one-bit species masks of the write
  /// (old_mask all-ones when the pre-write species is unknown). An entry
  /// whose probes match neither species reads the same membership bit
  /// before and after, so this write alone cannot have flipped it and the
  /// visit is skipped — a no-op pruned. A write elsewhere that can flip the
  /// same anchor schedules its own visit.
  ///
  /// Two refinements apply when the old species is known and the entry
  /// represents a single probe (the common case; offset-aliased merges opt
  /// out via `multi`). The entry's probe examines exactly the written site,
  /// so its hit bit moved (old in mask) -> (new in mask):
  ///  - both in the mask: the bit held at 1, the anchor's enabledness is
  ///    untouched by this write — skip like the disjoint case;
  ///  - new species not in the mask: the bit dropped to 0 and the type's
  ///    probe conjunction fails outright — report disabled without walking
  ///    the remaining probes.
  template <class Visitor>
  void visit_rechecks(const SpeciesBitplanes& planes, std::int32_t wx,
                      std::int32_t wy, SpeciesMask old_mask,
                      SpeciesMask new_mask, Visitor&& visit) const {
    const SpeciesMask changed = old_mask | new_mask;
    const bool exact = old_mask != ~SpeciesMask{0};
    for (const Recheck& r : rechecks_) {
      if ((r.mask & changed) == 0) continue;
      bool known_false = false;
      if (exact && !r.multi) {
        const bool now_in = (r.mask & new_mask) != 0;
        if (((r.mask & old_mask) != 0) == now_in) continue;
        known_false = !now_in;
      }
      std::int32_t ax = wx + r.dx;
      if (ax >= width_) ax -= width_;
      std::int32_t ay = wy + r.dy;
      if (ay >= height_) ay -= height_;
      const SiteIndex anchor = static_cast<SiteIndex>(ay) *
                                   static_cast<SiteIndex>(width_) +
                               static_cast<SiteIndex>(ax);
      visit(r.type, anchor,
            !known_false && enabled(planes, r.type, ax, ay));
    }
  }

 private:
  struct TypeSpan {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool never = false;
  };
  struct Probe {
    std::int32_t dx, dy;  // wrapped into [0, width) / [0, height)
    std::uint32_t first_sp, num_sp;
  };
  struct Recheck {
    std::int32_t dx, dy;  // anchor = written + (dx, dy), wrapped as above
    ReactionIndex type;
    SpeciesMask mask;  // union of the source masks probing the written site
    bool multi;        // offset-aliased merge: mask is a union, not one probe
  };
  std::int32_t width_ = 0;
  std::int32_t height_ = 0;
  std::vector<TypeSpan> types_;
  std::vector<Probe> probes_;
  std::vector<Species> species_;  // flattened per-probe mask members
  std::vector<Recheck> rechecks_;
};

/// Per-site "which reaction types are enabled here" bitset, site-major and
/// word-packed so one trial test costs a single load and bit test. Like
/// the bitplanes this is derived state — rebuilt from the planes via the
/// probe plans and kept in sync by rechecking around every write
/// (ProbePlans::visit_rechecks).
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
