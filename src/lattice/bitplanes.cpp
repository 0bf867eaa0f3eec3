#include "lattice/bitplanes.hpp"

#include <algorithm>
#include <cassert>

namespace casurf {

SpeciesBitplanes::SpeciesBitplanes(const Configuration& config)
    : width_(config.lattice().width()),
      height_(config.lattice().height()),
      words_per_row_((static_cast<std::size_t>(config.lattice().width()) + 63) / 64),
      num_species_(config.num_species()),
      bits_(num_species_ * height_ * words_per_row_, 0) {
  rebuild(config);
}

void SpeciesBitplanes::rebuild(const Configuration& config) {
  assert(config.lattice().width() == width_ &&
         config.lattice().height() == height_ &&
         config.num_species() == num_species_);
  std::fill(bits_.begin(), bits_.end(), 0);
  const std::span<const Species> state = config.raw();
  for (std::int32_t y = 0; y < height_; ++y) {
    const std::size_t row_base = static_cast<std::size_t>(y) * width_;
    for (std::int32_t x = 0; x < width_; ++x) {
      const Species sp = state[row_base + x];
      mutable_row(sp, y)[static_cast<std::size_t>(x) >> 6] |=
          std::uint64_t{1} << (static_cast<std::uint32_t>(x) & 63u);
    }
  }
}

void SpeciesBitplanes::resync_site(const Configuration& config, SiteIndex s) {
  const auto [x, y] = config.lattice().coord(s);
  const std::size_t word = static_cast<std::size_t>(x) >> 6;
  const std::uint64_t mask = std::uint64_t{1} << (static_cast<std::uint32_t>(x) & 63u);
  for (Species sp = 0; sp < num_species_; ++sp) mutable_row(sp, y)[word] &= ~mask;
  mutable_row(config.get(s), y)[word] |= mask;
}

bool SpeciesBitplanes::matches(const Configuration& config) const {
  return config.lattice().width() == width_ && config.lattice().height() == height_ &&
         config.num_species() == num_species_ && SpeciesBitplanes(config).bits_ == bits_;
}

}  // namespace casurf
