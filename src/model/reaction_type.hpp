#pragma once

#include <string>
#include <vector>

#include "lattice/configuration.hpp"
#include "model/transform.hpp"

namespace casurf {

/// A reaction type Rt (paper section 2): a translation-invariant rule that,
/// anchored at a site s, matches a source pattern over a small neighborhood
/// and rewrites it to a target pattern, proceeding at rate constant k.
///
/// Translation invariance is inherent to the representation: the transforms
/// store *offsets* from the anchor, so Rt(s + t) = Rt(s) + t by
/// construction. The anchor must be part of its own neighborhood
/// (s in Nb(s)); the constructor enforces a transform at offset (0,0).
class ReactionType {
 public:
  ReactionType(std::string name, double rate, std::vector<Transform> transforms);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] const std::vector<Transform>& transforms() const { return transforms_; }

  /// The neighborhood Nb(0): offsets of all sites the rule reads or writes.
  [[nodiscard]] const std::vector<Vec2>& neighborhood() const { return neighborhood_; }

  /// Largest L1 distance of any neighborhood offset from the anchor.
  [[nodiscard]] std::int32_t radius_l1() const { return radius_l1_; }

  /// True when the source pattern matches at anchor `s` in `cfg`
  /// ("Rt is enabled at s in state S").
  [[nodiscard]] bool enabled(const Configuration& cfg, SiteIndex s) const {
    const Lattice& lat = cfg.lattice();
    for (const Transform& t : transforms_) {
      if (!mask_contains(t.src, cfg.get(lat.neighbor(s, t.offset)))) return false;
    }
    return true;
  }

  /// Apply the target pattern at anchor `s`. Precondition: enabled(cfg, s).
  void execute(Configuration& cfg, SiteIndex s) const {
    const Lattice& lat = cfg.lattice();
    for (const Transform& t : transforms_) {
      if (t.tg != kKeep) cfg.set(lat.neighbor(s, t.offset), t.tg);
    }
  }

  /// Apply the target pattern via raw (count-less) writes, accumulating the
  /// per-species population change into `deltas` (array of one entry per
  /// species). Used by the strip-decomposed RSM's threads; see
  /// Configuration::set_raw.
  void execute_raw(Configuration& cfg, SiteIndex s, std::int64_t* deltas) const {
    const Lattice& lat = cfg.lattice();
    for (const Transform& t : transforms_) {
      if (t.tg == kKeep) continue;
      const SiteIndex z = lat.neighbor(s, t.offset);
      const Species old = cfg.get(z);
      if (old == t.tg) continue;
      cfg.set_raw(z, t.tg);
      --deltas[old];
      ++deltas[t.tg];
    }
  }

  /// True if executing this rule can ever change the species at relative
  /// offset `o` (i.e. `o` is in the *write set*, not merely a precondition).
  [[nodiscard]] bool writes_offset(Vec2 o) const;

 private:
  std::string name_;
  double rate_;
  std::vector<Transform> transforms_;
  std::vector<Vec2> neighborhood_;
  std::int32_t radius_l1_ = 0;
};

}  // namespace casurf
