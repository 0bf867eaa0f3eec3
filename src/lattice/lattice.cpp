#include "lattice/lattice.hpp"

#include <stdexcept>
#include <string>

namespace casurf {

Lattice::Lattice(std::int32_t width, std::int32_t height)
    : width_(width), height_(height) {
  if (width <= 0 || height <= 0 ||
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height) > kMaxSites) {
    throw std::invalid_argument("lattice " + std::to_string(width) + " x " +
                                std::to_string(height) +
                                ": both sides must be positive and the site count at most " +
                                std::to_string(kMaxSites));
  }
  // floor((2^64 - 1) / w) + 1 is ceil(2^64 / w) for every w > 1; at w == 1
  // it would wrap to 0, so row() special-cases that width instead.
  if (width > 1) recip_ = ~std::uint64_t{0} / static_cast<std::uint64_t>(width) + 1;
}

std::vector<SiteIndex> Lattice::neighbors(SiteIndex base,
                                          const std::vector<Vec2>& offs) const {
  std::vector<SiteIndex> out;
  out.reserve(offs.size());
  for (const Vec2 o : offs) out.push_back(neighbor(base, o));
  return out;
}

const std::vector<Vec2>& Lattice::von_neumann_offsets() {
  static const std::vector<Vec2> offs = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  return offs;
}

}  // namespace casurf
