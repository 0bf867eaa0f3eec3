#pragma once

#include <cstdint>
#include <vector>

#include "lattice/configuration.hpp"
#include "lattice/lattice.hpp"
#include "lattice/species.hpp"

namespace casurf {

/// Structure-of-arrays snapshot of a Configuration: one bitplane per
/// species, one bit per site, rows padded to whole 64-bit words. Where the
/// AoS `Configuration` answers "what species is at site s?", a plane row
/// answers "which sites of row y hold species sp?" 64 sites per word —
/// what ProbePlans::row_enabled (model/probe_plans.hpp) evaluates reaction
/// patterns against, a row at a time, when the incremental stores of
/// enabledness are built.
///
/// The planes are built once from the configuration and never updated:
/// they serve one build, and a store rebuilt later builds its own. While a
/// run executes, the configuration is the only copy of the lattice state.
class SpeciesBitplanes {
 public:
  explicit SpeciesBitplanes(const Configuration& config);

  [[nodiscard]] std::int32_t width() const { return width_; }
  [[nodiscard]] std::int32_t height() const { return height_; }

  /// 64-bit words per plane row: ceil(width / 64). The bits past the width
  /// are always zero.
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  /// Species sp's bits along row y: bit x & 63 of word x >> 6 is site
  /// (x, y). words_per_row() words.
  [[nodiscard]] const std::uint64_t* plane_row(Species sp, std::int32_t y) const {
    return bits_.data() + (static_cast<std::size_t>(sp) * height_ + y) * words_per_row_;
  }

 private:
  std::int32_t width_ = 0;
  std::int32_t height_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;  // [species][row][word], row-padded
};

}  // namespace casurf
