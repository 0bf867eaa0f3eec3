#pragma once

#include <cstdint>
#include <vector>

#include "lattice/bitplanes.hpp"
#include "model/reaction_model.hpp"

namespace casurf {

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
  /// after a write at (wx, wy): a write at z can flip type t only at the
  /// anchors z - o, for the offsets o of t's transforms. The visitor
  /// receives (type, anchor index, enabledness against the planes), so the
  /// planes must already be synced with the configuration (resync the
  /// written sites first). Offsets whose source mask covers the whole
  /// domain never flip a result and are pruned from the table at build, as
  /// are never-enabled types: the pruned visits were no-ops, so the visited
  /// state converges identically.
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
  void visit_rechecks(const SpeciesBitplanes& planes, std::int32_t wx,
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

/// The library's one recheck routine, shared by every store of incremental
/// enabledness: VSSM's per-type enabled sets, FRM's pair flags and event
/// queue, and the enabled-rate cache of the rate-weighted PNDCA policies.
/// It owns the species-bitplane mirror of the configuration, the probe
/// plans compiled against it, and the old-species scratch of the last
/// execution; each owner applies the visits to its own store.
///
/// A commit is two calls: execute() records the old species of the
/// written sites and executes, then after_fire() resyncs the planes and
/// visits every (type, anchor) the writes can have flipped, by written
/// site in transform order, then in ProbePlans::visit_rechecks order. The
/// threaded PNDCA engine defers the second call: its workers capture the
/// old species and execute, and the sweep barrier replays the after_fire()
/// calls in serial execution order. Same-chunk writes are disjoint, so each
/// replayed call sees the planes and species the serial call saw.
///
/// The planes are derived state: rebuilt on construction, on checkpoint
/// restore and on audit repair (rebuild()); SpeciesBitplanes::matches is
/// their audit ground truth.
class Rechecker {
 public:
  Rechecker(const ReactionModel& model, const Configuration& config);

  [[nodiscard]] const SpeciesBitplanes& planes() const { return planes_; }
  [[nodiscard]] const ProbePlans& probes() const { return probes_; }

  /// Re-derive the planes from `config`.
  void rebuild(const Configuration& config) { planes_.rebuild(config); }

  /// Write to out[0, rt.transforms().size()) the species that an execution
  /// of `rt` at `s` would overwrite, indexed like rt.transforms() (entries of
  /// kKeep transforms are 0 and unused). The one species capture: execute()
  /// and the threaded engine's workers both record through it.
  static void capture_old_species(const Configuration& config, const ReactionType& rt,
                                  SiteIndex s, Species* out);

  /// Execute `rt` at `s` on `config` and return the old species of the
  /// written sites, as capture_old_species lays them out; valid until the
  /// next execute().
  [[nodiscard]] const Species* execute(Configuration& config, const ReactionType& rt,
                                       SiteIndex s);

  /// After an execution of `rt` anchored at `s` has been written to
  /// `config`: resync the planes of the written sites, then call
  /// visit(type, anchor, enabled) for every recheck the writes call for.
  /// `old_species` (as returned by execute()) holds each written site's
  /// species before the execution; it prunes the rechecks that depend on
  /// neither the old nor the new species of a written site.
  template <class Visitor>
  void after_fire(const Configuration& config, const ReactionType& rt, SiteIndex s,
                  const Species* old_species, Visitor&& visit) {
    const Lattice& lat = config.lattice();
    const std::vector<Transform>& trs = rt.transforms();
    // Every written site first, so each probe reads planes that mirror the
    // post-fire configuration.
    for (const Transform& t : trs) {
      if (t.tg != kKeep) planes_.resync_site(config, lat.neighbor(s, t.offset));
    }
    const Vec2 anchor = lat.coord(s);
    for (std::size_t ti = 0; ti < trs.size(); ++ti) {
      if (trs[ti].tg == kKeep) continue;
      const Vec2 w = lat.wrap(anchor + trs[ti].offset);
      probes_.visit_rechecks(planes_, w.x, w.y, SpeciesMask{1} << old_species[ti],
                             SpeciesMask{1} << config.get(lat.index(w)), visit);
    }
  }

  /// Test-only corruption hook for the audit suites: resyncs site s's
  /// plane bits from `wrong` instead of the simulated configuration.
  void corrupt_plane_for_test(const Configuration& wrong, SiteIndex s) {
    planes_.resync_site(wrong, s);
  }

 private:
  SpeciesBitplanes planes_;
  ProbePlans probes_;
  std::vector<Species> old_species_;
};

}  // namespace casurf
