#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "lattice/vec2.hpp"

namespace casurf {

/// Index of a site in row-major order. 32 bits index up to 2^32 - 1 sites,
/// far beyond what the simulators here target; the maximum value itself is
/// never a site (EnabledSet reserves it as its absent marker).
using SiteIndex = std::uint32_t;

/// A two-dimensional rectangular lattice L0 x L1 with periodic boundary
/// conditions (a torus). This is the spatial substrate of the paper's model
/// (section 2): the surface is a lattice Omega of N = L0 x L1 sites.
///
/// The lattice itself is geometry only; occupation state lives in
/// `Configuration`. One-dimensional systems are modelled as L1 == 1.
class Lattice {
 public:
  /// The largest site count a lattice may have (see SiteIndex).
  static constexpr std::uint64_t kMaxSites = std::numeric_limits<SiteIndex>::max();

  /// Throws std::invalid_argument, naming both sides, unless both sides are
  /// positive and width * height <= kMaxSites.
  Lattice(std::int32_t width, std::int32_t height);

  [[nodiscard]] std::int32_t width() const { return width_; }
  [[nodiscard]] std::int32_t height() const { return height_; }
  [[nodiscard]] SiteIndex size() const {
    return static_cast<SiteIndex>(width_) * static_cast<SiteIndex>(height_);
  }

  /// Row-major index of an in-range coordinate.
  [[nodiscard]] SiteIndex index(Vec2 p) const {
    assert(p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_);
    return static_cast<SiteIndex>(p.y) * static_cast<SiteIndex>(width_) +
           static_cast<SiteIndex>(p.x);
  }

  [[nodiscard]] Vec2 coord(SiteIndex i) const {
    assert(i < size());
    return {static_cast<std::int32_t>(i % static_cast<SiteIndex>(width_)),
            static_cast<std::int32_t>(i / static_cast<SiteIndex>(width_))};
  }

  /// Wrap an arbitrary coordinate onto the torus.
  [[nodiscard]] Vec2 wrap(Vec2 p) const {
    return {mod(p.x, width_), mod(p.y, height_)};
  }

  /// Index of site `base + offset`, periodic. This is the hot path of every
  /// enabled-check; offsets are small so the mod is cheap and branch-free
  /// on the common in-range case is not worth the complexity.
  [[nodiscard]] SiteIndex neighbor(SiteIndex base, Vec2 offset) const {
    const Vec2 c = coord(base);
    return index(wrap(c + offset));
  }

  /// All site indices at offsets `offs` from `base`, periodic.
  [[nodiscard]] std::vector<SiteIndex> neighbors(SiteIndex base,
                                                 const std::vector<Vec2>& offs) const;

  /// The four von Neumann unit offsets (+x, +y, -x, -y).
  static const std::vector<Vec2>& von_neumann_offsets();

  friend bool operator==(const Lattice& a, const Lattice& b) {
    return a.width_ == b.width_ && a.height_ == b.height_;
  }

 private:
  static std::int32_t mod(std::int32_t v, std::int32_t m) {
    const std::int32_t r = v % m;
    return r < 0 ? r + m : r;
  }

  std::int32_t width_;
  std::int32_t height_;
};

}  // namespace casurf
