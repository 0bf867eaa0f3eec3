#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "lattice/bitplanes.hpp"
#include "model/reaction_model.hpp"

namespace casurf {

/// Single-anchor enabledness, precompiled per reaction type: the one
/// compiled form of the model's patterns.
///
/// ReactionType::enabled() resolves every transform through
/// Lattice::neighbor(), which takes the anchor's row from a reciprocal and
/// wraps both axes of every offset. A ProbePlans is the same predicate as a
/// flat list of probes per type, whose offsets are pre-wrapped into
/// [0, width) x [0, height) at build time, so evaluating one costs an add
/// and one conditional subtract per axis, and one load of the site's byte
/// of the configuration. The rechecks and the scalar lanes of the span
/// kernel (ca/fastpath.hpp) evaluate it per site, the span kernel's 8
/// lanes read the same table lane-wise, and the initial builds of the
/// incremental stores evaluate it a row at a time against species
/// bitplanes built for the purpose (row_enabled). Transforms whose mask
/// covers the whole species domain are dropped at build (every site holds
/// exactly one species). A type with an empty source mask is never
/// enabled: it keeps one probe whose mask matches no species, so every
/// evaluator reports it disabled without a special case, while a type left
/// with no probes is enabled everywhere.
class ProbePlans {
 public:
  /// The site at anchor + (dx, dy) must hold a species in `mask`.
  struct Probe {
    std::int32_t dx, dy;  // wrapped into [0, width) / [0, height)
    SpeciesMask mask;     // the transform's source mask within the domain
  };
  /// A type's probes: probes()[first, first + count), most selective first.
  struct TypeSpan {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  /// The span kernel's lane table (ca/fastpath.hpp), built once with the
  /// plans. `rounds` is the most probes of any type, the rounds a lane block
  /// runs. When the types and the probes each fit kWords (in_registers), the
  /// columns hold the type spans' first and count, indexed by type, and the
  /// probes' dx, dy and mask, indexed by probe, each column one register of
  /// 16 words that a lookup permutes; the words past the table are zero.
  /// Otherwise every column is zero and the lanes gather from types() and
  /// probes().
  struct LaneTable {
    static constexpr std::size_t kWords = 16;
    enum Column : std::size_t { kFirst, kCount, kDx, kDy, kMask, kColumns };
    bool in_registers = false;
    std::uint32_t rounds = 0;
    std::array<std::array<std::uint32_t, kWords>, kColumns> columns{};
  };

  ProbePlans(const ReactionModel& model, std::int32_t width, std::int32_t height);

  /// Exactly model.reaction(t).enabled(config, site at (x, y)), evaluated
  /// on the configuration's bytes, which must lie on a width x height
  /// lattice. Requires x in [0, width), y in [0, height).
  [[nodiscard]] bool enabled(const Configuration& config, ReactionIndex t,
                             std::int32_t x, std::int32_t y) const {
    const TypeSpan& ts = types_[t];
    const Probe* p = probes_.data() + ts.first;
    for (std::uint32_t n = ts.count; n != 0; --n, ++p) {
      // Unsigned: x + dx stays below 2 * width, which may exceed INT32_MAX.
      std::uint32_t px = static_cast<std::uint32_t>(x) + static_cast<std::uint32_t>(p->dx);
      if (px >= static_cast<std::uint32_t>(width_)) px -= static_cast<std::uint32_t>(width_);
      std::uint32_t py = static_cast<std::uint32_t>(y) + static_cast<std::uint32_t>(p->dy);
      if (py >= static_cast<std::uint32_t>(height_)) py -= static_cast<std::uint32_t>(height_);
      if (!mask_contains(p->mask, config.get(static_cast<SiteIndex>(py) *
                                                 static_cast<SiteIndex>(width_) +
                                             static_cast<SiteIndex>(px)))) {
        return false;
      }
    }
    return true;
  }

  /// Type t's enabledness along the whole row y, 64 anchors per word: bit
  /// x & 63 of out[x >> 6] is enabled(config, t, x, y) for the configuration
  /// `planes` were built from, for x < width, and the bits past the width
  /// are zero. `out` holds planes.words_per_row() words. Each probe is the
  /// OR of its mask's plane rows rotated by the probe's wrapped dx, and the
  /// type is the AND of its probes.
  void row_enabled(const SpeciesBitplanes& planes, ReactionIndex t, std::int32_t y,
                   std::uint64_t* out) const;

  /// Calls visit(anchor) for every site where type t is enabled, in raster
  /// order, a row at a time through row_enabled: the initial builds of the
  /// enabled sets, which would otherwise probe every (site, type) pair.
  template <class Visitor>
  void for_each_enabled(const SpeciesBitplanes& planes, ReactionIndex t,
                        Visitor&& visit) const {
    std::vector<std::uint64_t> row(planes.words_per_row());
    SiteIndex base = 0;
    for (std::int32_t y = 0; y < height_; ++y, base += static_cast<SiteIndex>(width_)) {
      row_enabled(planes, t, y, row.data());
      for (std::size_t k = 0; k < row.size(); ++k) {
        for (std::uint64_t bits = row[k]; bits != 0; bits &= bits - 1) {
          visit(base + static_cast<SiteIndex>(64 * k + std::countr_zero(bits)));
        }
      }
    }
  }

  /// The compiled table, for kernels that evaluate it lane-wise.
  [[nodiscard]] std::span<const TypeSpan> types() const { return types_; }
  [[nodiscard]] std::span<const Probe> probes() const { return probes_; }
  [[nodiscard]] const LaneTable& lanes() const { return lanes_; }

  [[nodiscard]] std::size_t num_types() const { return types_.size(); }

  /// Visit every (type, anchor) pair whose enabledness may have changed
  /// after a write at (wx, wy): a write at z can flip type t only at the
  /// anchors z - o, for the offsets o of t's transforms. The visitor
  /// receives (type, anchor index, enabledness in `config`), so every site
  /// the execution wrote must already hold its new species. Offsets whose
  /// source mask covers the whole domain never flip a result and are
  /// pruned from the table at build, as are never-enabled types: the
  /// pruned visits were no-ops, so the visited state converges identically.
  ///
  /// Visit order is part of the contract: by type index, then by each
  /// type's offsets in transform order. Stores whose layout depends on the
  /// order of their updates (VSSM's enabled sets, FRM's random draws)
  /// reproduce their trajectories only under this order.
  ///
  /// `old_mask` / `new_mask` are the one-bit species masks of the write. An
  /// entry whose probes match neither species reads the same membership bit
  /// before and after, so this write alone cannot have flipped it and the
  /// visit is skipped — a no-op pruned. A write elsewhere that can flip the
  /// same anchor schedules its own visit.
  ///
  /// Two refinements apply when the entry represents a single probe (the
  /// common case; offset-aliased merges opt out via `multi`). The entry's
  /// probe examines exactly the written site, so its hit bit moved
  /// (old in mask) -> (new in mask):
  ///  - both in the mask: the bit held at 1, the anchor's enabledness is
  ///    untouched by this write — skip like the disjoint case;
  ///  - new species not in the mask: the bit dropped to 0 and the type's
  ///    probe conjunction fails outright — report disabled without walking
  ///    the remaining probes.
  template <class Visitor>
  void visit_rechecks(const Configuration& config, std::int32_t wx,
                      std::int32_t wy, SpeciesMask old_mask,
                      SpeciesMask new_mask, Visitor&& visit) const {
    const SpeciesMask changed = old_mask | new_mask;
    for (const Recheck& r : rechecks_) {
      if ((r.mask & changed) == 0) continue;
      bool known_false = false;
      if (!r.multi) {
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
            !known_false && enabled(config, r.type, ax, ay));
    }
  }

 private:
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
  std::vector<Recheck> rechecks_;
  LaneTable lanes_;
};

/// The library's one recheck routine, shared by every store of incremental
/// enabledness: VSSM's per-type enabled sets, FRM's indexed event queue,
/// and the enabled-rate cache of the rate-weighted PNDCA policies.
/// It owns the probe plans and the old-species scratch of the last
/// execution, and tests every recheck against the configuration's bytes,
/// so it holds no copy of the lattice state that could fall behind it;
/// each owner applies the visits to its own store.
///
/// A commit is two calls: execute() records the old species of the
/// written sites and executes, then after_fire() visits every
/// (type, anchor) the writes can have flipped, by written site in
/// transform order, then in ProbePlans::visit_rechecks order. Every member
/// of the partitioned CA family, threaded PNDCA included, commits on one
/// thread, so the two calls always run back to back.
///
/// An owner may apply the visits as they come (the rate cache) or record
/// them and apply them in the same order once after_fire() returns (VSSM
/// and FRM, which prefetch each visit's index entry while recording).
/// Both give the same stores: a visit's enabledness reads only the
/// configuration, which no store update writes.
class Rechecker {
 public:
  Rechecker(const ReactionModel& model, const Lattice& lattice);

  [[nodiscard]] const ProbePlans& probes() const { return probes_; }

  /// Execute `rt` at `s` on `config` and return the species it overwrote,
  /// indexed like rt.transforms() (entries of kKeep transforms are 0 and
  /// unused); valid until the next execute().
  [[nodiscard]] const Species* execute(Configuration& config, const ReactionType& rt,
                                       SiteIndex s);

  /// After an execution of `rt` anchored at `s` has been written to
  /// `config`: call visit(type, anchor, enabled) for every recheck the
  /// writes call for, with `enabled` read from `config` as it stands.
  /// `old_species` (as returned by execute()) holds each written site's
  /// species before the execution; it prunes the rechecks that depend on
  /// neither the old nor the new species of a written site.
  template <class Visitor>
  void after_fire(const Configuration& config, const ReactionType& rt, SiteIndex s,
                  const Species* old_species, Visitor&& visit) const {
    const Lattice& lat = config.lattice();
    const std::vector<Transform>& trs = rt.transforms();
    const Vec2 anchor = lat.coord(s);
    for (std::size_t ti = 0; ti < trs.size(); ++ti) {
      if (trs[ti].tg == kKeep) continue;
      const Vec2 w = lat.wrap(anchor + trs[ti].offset);
      probes_.visit_rechecks(config, w.x, w.y, SpeciesMask{1} << old_species[ti],
                             SpeciesMask{1} << config.get(lat.index(w)), visit);
    }
  }

 private:
  ProbePlans probes_;
  std::vector<Species> old_species_;
};

}  // namespace casurf
