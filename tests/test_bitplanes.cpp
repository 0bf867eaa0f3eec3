#include "lattice/bitplanes.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

Configuration random_config(std::int32_t w, std::int32_t h, std::size_t species,
                            std::uint64_t seed) {
  Configuration cfg(Lattice(w, h), species, 0);
  Xoshiro256 rng(seed);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    cfg.set(s, static_cast<Species>(uniform_below(rng, species)));
  }
  return cfg;
}

bool bit(const SpeciesBitplanes& planes, Species sp, std::int32_t x, std::int32_t y) {
  return (planes.plane_row(sp, y)[static_cast<std::size_t>(x) >> 6] >>
          (static_cast<std::uint32_t>(x) & 63u)) & 1u;
}

TEST(Bitplanes, RebuildMatchesConfiguration) {
  // Widths off the word grid, width 1 and a whole word included: every
  // site lands on its own bit of its species' plane, and the padding past
  // the width stays zero.
  for (const auto& [w, h] : {std::pair{1, 9}, {3, 7}, {10, 7}, {37, 4}, {64, 3}, {70, 5},
                              {128, 4}, {129, 2}}) {
    const Configuration cfg = random_config(w, h, 3, 11);
    const SpeciesBitplanes planes(cfg);
    ASSERT_EQ(planes.words_per_row(), static_cast<std::size_t>((w + 63) / 64));
    for (std::int32_t y = 0; y < h; ++y) {
      for (std::int32_t x = 0; x < 64 * static_cast<std::int32_t>(planes.words_per_row());
           ++x) {
        const bool inside = x < w;
        const Species truth = inside ? cfg.get(cfg.lattice().index({x, y})) : 0;
        for (Species sp = 0; sp < 3; ++sp) {
          ASSERT_EQ(bit(planes, sp, x, y), inside && sp == truth)
              << w << "x" << h << " (" << x << "," << y << ") sp " << int(sp);
        }
      }
    }
  }
}

TEST(Bitplanes, ManySpeciesPlanes) {
  // More species than the old 8-color assumptions elsewhere: 12 planes,
  // each site in exactly one.
  const Configuration cfg = random_config(33, 5, 12, 41);
  const SpeciesBitplanes planes(cfg);
  for (std::int32_t x = 0; x < 33; ++x) {
    int set = 0;
    for (Species sp = 0; sp < 12; ++sp) set += bit(planes, sp, x, 2) ? 1 : 0;
    ASSERT_EQ(set, 1) << x;
  }
}

}  // namespace
}  // namespace casurf
