#include "lattice/bitplanes.hpp"

namespace casurf {

SpeciesBitplanes::SpeciesBitplanes(const Configuration& config)
    : width_(config.lattice().width()),
      height_(config.lattice().height()),
      words_per_row_((static_cast<std::size_t>(config.lattice().width()) + 63) / 64),
      bits_(config.num_species() * height_ * words_per_row_, 0) {
  const std::span<const Species> state = config.raw();
  for (std::int32_t y = 0; y < height_; ++y) {
    const std::size_t row_base = static_cast<std::size_t>(y) * width_;
    for (std::int32_t x = 0; x < width_; ++x) {
      const Species sp = state[row_base + x];
      bits_[(static_cast<std::size_t>(sp) * height_ + y) * words_per_row_ +
            (static_cast<std::size_t>(x) >> 6)] |=
          std::uint64_t{1} << (static_cast<std::uint32_t>(x) & 63u);
    }
  }
}

}  // namespace casurf
