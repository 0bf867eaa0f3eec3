#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "lattice/vec2.hpp"

namespace casurf {

/// Index of a site in row-major order. A lattice holds at most 2^32 - 1
/// sites, far beyond what the simulators here target: Lattice::size()
/// returns a SiteIndex, so the site count itself must fit in one.
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

  /// (i mod width, i / width), without a division: see row().
  [[nodiscard]] Vec2 coord(SiteIndex i) const {
    assert(i < size());
    const SiteIndex y = row(i);
    return {static_cast<std::int32_t>(i - y * static_cast<SiteIndex>(width_)),
            static_cast<std::int32_t>(y)};
  }

  /// ceil(2^64 / width), or 0 at width 1: the reciprocal behind row(), for
  /// vector kernels that take rows lane-wise.
  [[nodiscard]] std::uint64_t row_reciprocal() const { return recip_; }

  /// Wrap an arbitrary coordinate onto the torus. An axis value within one
  /// period of [0, extent) wraps by one conditional add or subtract; only
  /// farther values, which need an offset at least as long as the lattice
  /// side, pay the modulo.
  [[nodiscard]] Vec2 wrap(Vec2 p) const {
    return {wrap_axis(p.x, width_), wrap_axis(p.y, height_)};
  }

  /// Index of site `base + offset`, periodic. This is the hot path of every
  /// enabled-check and every commit. It divides nowhere: the row comes from
  /// the reciprocal, and an offset shorter than the lattice side wraps each
  /// axis by one conditional add or subtract.
  [[nodiscard]] SiteIndex neighbor(SiteIndex base, Vec2 offset) const {
    return index(wrap(coord(base) + offset));
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
  static std::int32_t wrap_axis(std::int32_t v, std::int32_t m) {
    if (v < 0) {
      if (v >= -m) return v + m;
    } else if (v < m) {
      return v;
    } else if (v - m < m) {
      return v - m;
    }
    const std::int32_t r = v % m;
    return r < 0 ? r + m : r;
  }

  /// i / width for every 32-bit i: the high word of recip_ * i, with recip_
  /// = ceil(2^64 / width) (Lemire, Kaser & Kurz, "Faster remainder by direct
  /// computation", 2019: exact for 32-bit numerators because 64 >= 32 +
  /// log2(width)). ceil(2^64 / 1) does not fit in 64 bits, so width 1 keeps
  /// recip_ = 0 and takes its own branch.
  [[nodiscard]] SiteIndex row(SiteIndex i) const {
    if (width_ == 1) return i;
    __extension__ using u128 = unsigned __int128;
    return static_cast<SiteIndex>((static_cast<u128>(recip_) * i) >> 64);
  }

  std::int32_t width_;
  std::int32_t height_;
  std::uint64_t recip_ = 0;  // ceil(2^64 / width_); 0 when width_ == 1
};

}  // namespace casurf
