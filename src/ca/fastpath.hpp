#pragma once

#include <cstdint>
#include <vector>

#include "lattice/bitplanes.hpp"
#include "model/reaction_model.hpp"
#include "partition/partition.hpp"
#include "rng/counter_rng.hpp"

namespace casurf {

/// One 64-column slice of a chunk: the sites of the chunk that fall in row
/// `y`, columns [x0, x0 + 64) of the lattice (x0 is 64-aligned, so member
/// bit f corresponds to column x0 + f < width). Enumerating a chunk's
/// windows in order, low member bit first, visits the chunk's sites in
/// exactly the ascending row-major order the Partition constructor built —
/// the scalar sweep order.
struct BatchWindow {
  std::int32_t y;
  std::int32_t x0;
  std::uint64_t members;
};

/// Group a chunk's site list (ascending row-major, as Partition builds it)
/// into BatchWindows.
[[nodiscard]] std::vector<BatchWindow> build_windows(
    const Lattice& lat, const std::vector<SiteIndex>& sites);

/// verify_partition plus the "fastpath/partition_gate" failpoint: returns
/// false — forcing the engine onto the scalar reference path — when the
/// failpoint fires, otherwise the real non-overlap check. Engines gate
/// set_fast_path() through this so fault injection can prove the scalar
/// fallback produces identical trajectories (docs/ROBUSTNESS.md).
[[nodiscard]] bool partition_gate(const Partition& p,
                                  const std::vector<Vec2>& conflict);

/// Lazily-built per-(partition slot, chunk) window lists. Windows are pure
/// geometry — they depend on the partition only, never on the configuration
/// — so they are built once and reused every sweep.
class WindowCache {
 public:
  explicit WindowCache(std::size_t num_slots) : slots_(num_slots) {}

  const std::vector<BatchWindow>& get(std::size_t slot, ChunkId c,
                                      const Lattice& lat,
                                      const std::vector<SiteIndex>& sites);

 private:
  struct Entry {
    std::vector<BatchWindow> windows;
    bool built = false;
  };
  std::vector<std::vector<Entry>> slots_;
};

/// 64-wide enabled mask of `rt` anchored along row y, columns [x0, x0+64):
/// the AND over the type's transforms of the shifted source-mask windows.
/// This is the dense-window primitive — it pays off when many anchors share
/// one reaction type (T-PNDCA sweeps); for per-trial random types use
/// ProbePlans below, which evaluates single anchors.
[[nodiscard]] inline std::uint64_t enabled_window(const SpeciesBitplanes& planes,
                                                  const ReactionType& rt,
                                                  std::int32_t y, std::int32_t x0) {
  std::uint64_t en = ~std::uint64_t{0};
  for (const Transform& t : rt.transforms()) {
    en &= planes.mask_window(t.src, y + t.offset.y, x0 + t.offset.x);
    if (en == 0) break;
  }
  return en;
}

/// Division-free single-anchor enabledness, precompiled per reaction type.
///
/// ReactionType::enabled() resolves every transform through
/// Lattice::neighbor(), whose coord/wrap arithmetic costs four integer
/// divisions per transform — the dominant cost of a scalar trial. A
/// ProbePlans is the same predicate compiled against the bitplanes: per
/// type, a flat list of probes whose offsets are pre-wrapped into
/// [0, width) x [0, height) at build time, so evaluation is an add, one
/// conditional subtract per axis, and a bitplane load per species of the
/// source mask. Transforms whose mask covers the whole species domain are
/// dropped at build (every site holds exactly one species), and a type
/// with an empty source mask is marked never-enabled.
class ProbePlans {
 public:
  ProbePlans() = default;
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

/// Per-site "which reaction types are enabled here" bitset: word-packed so
/// one trial costs a single load and bit test. Like the bitplanes this is
/// derived state — rebuilt from the planes via the probe plans, kept in
/// sync by rechecking around every write (ProbePlans::visit_rechecks), and
/// audited against a fresh recompute.
class EnabledTypeSet {
 public:
  EnabledTypeSet() = default;

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

  /// Audit ground truth: true when every bit agrees with a fresh probe of
  /// the planes.
  [[nodiscard]] bool matches(const SpeciesBitplanes& planes,
                             const ProbePlans& probes) const;

  /// Raw layout access for the batched trial kernel (gathered loads).
  [[nodiscard]] std::size_t words_per_site() const { return words_per_site_; }
  [[nodiscard]] const std::uint64_t* data() const { return bits_.data(); }

 private:
  std::size_t words_per_site_ = 1;
  std::vector<std::uint64_t> bits_;
};

/// One passing trial of a batched sweep: `index` into the site list handed
/// to batch_trials plus the reaction type its stream sampled.
struct TrialHit {
  std::uint32_t index;
  ReactionIndex type;
};

/// The front half of a chunk sweep, batched: for sites[0..n) evaluate the
/// two counter-RNG draws (streams keyed by (sweep, site), draw order
/// flip-then-slot — bit-identical to trial_at's CounterRng use), sample the
/// reaction type through the alias table, and test the per-site enabled
/// bitset. Appends one TrialHit per passing trial to `out` (capacity >= n)
/// in site-list order and returns the count; the caller then executes the
/// hits. At the ~1% acceptance typical of surface kinetics this splits a
/// sweep into a long straight-line kernel and a short commit tail.
///
/// `seed_hash` is CounterRng::seed_hash(seed). Runs 8 lanes wide under
/// AVX-512 when the CPU has it (runtime-dispatched); the lane arithmetic —
/// mix64, unit-interval mapping, alias slot/flip, bitset load — is exact
/// in both versions, so the hit list is identical either way.
[[nodiscard]] std::size_t batch_trials(std::uint64_t sweep, std::uint64_t seed_hash,
                                       const SiteIndex* sites, std::size_t n,
                                       const AliasTable& alias,
                                       const EnabledTypeSet& enabled,
                                       TrialHit* out);

/// Resync the planes for every site an execution of `rt` at `s` wrote.
/// Idempotent per site (resync_site re-derives from the configuration), so
/// the threaded engine can replay a whole sweep's executions at the barrier.
inline void resync_written(SpeciesBitplanes& planes, const Configuration& cfg,
                           const ReactionType& rt, SiteIndex s) {
  const Lattice& lat = cfg.lattice();
  for (const Transform& t : rt.transforms()) {
    if (t.tg != kKeep) planes.resync_site(cfg, lat.neighbor(s, t.offset));
  }
}

}  // namespace casurf
