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

TEST(Bitplanes, RebuildMatchesConfiguration) {
  for (const auto& [w, h] : {std::pair{10, 7}, {64, 3}, {70, 5}, {128, 4}}) {
    const Configuration cfg = random_config(w, h, 3, 11);
    const SpeciesBitplanes planes(cfg);
    EXPECT_TRUE(planes.matches(cfg)) << w << "x" << h;
    for (std::int32_t y = 0; y < h; ++y) {
      for (std::int32_t x = 0; x < w; ++x) {
        const Species truth = cfg.get(cfg.lattice().index({x, y}));
        for (Species sp = 0; sp < 3; ++sp) {
          ASSERT_EQ(planes.bit(sp, x, y), sp == truth)
              << w << "x" << h << " (" << x << "," << y << ") sp " << int(sp);
        }
      }
    }
  }
}

TEST(Bitplanes, ResyncSiteTracksWritesAndIsIdempotent) {
  Configuration cfg = random_config(70, 5, 4, 23);
  SpeciesBitplanes planes(cfg);
  Xoshiro256 rng(29);
  for (int i = 0; i < 200; ++i) {
    const SiteIndex s = static_cast<SiteIndex>(uniform_below(rng, cfg.size()));
    cfg.set(s, static_cast<Species>(uniform_below(rng, 4)));
    planes.resync_site(cfg, s);
    planes.resync_site(cfg, s);  // replaying must be harmless
    ASSERT_TRUE(planes.matches(cfg)) << "after resync " << i;
  }
}

TEST(Bitplanes, ResyncSiteAddressesEverySiteOnAnyWidth) {
  // resync_site takes (x, y) from Lattice::coord's reciprocal: every site of
  // widths that are not powers of two, width 1 (its own branch) included,
  // must land on its own bit.
  for (const auto& [w, h] : {std::pair{1, 9}, {3, 7}, {37, 4}, {100, 3}, {129, 2}}) {
    Configuration cfg = random_config(w, h, 3, 43);
    SpeciesBitplanes planes(cfg);
    for (SiteIndex s = 0; s < cfg.size(); ++s) {
      cfg.set(s, static_cast<Species>((cfg.get(s) + 1) % 3));
      planes.resync_site(cfg, s);
    }
    EXPECT_TRUE(planes.matches(cfg)) << w << "x" << h;
  }
}

TEST(Bitplanes, MatchesDetectsStaleBit) {
  Configuration cfg = random_config(12, 12, 3, 31);
  SpeciesBitplanes planes(cfg);
  ASSERT_TRUE(planes.matches(cfg));
  const SiteIndex s = 77;
  const Species old = cfg.get(s);
  cfg.set(s, static_cast<Species>((old + 1) % 3));
  EXPECT_FALSE(planes.matches(cfg));
  planes.rebuild(cfg);
  EXPECT_TRUE(planes.matches(cfg));
}

TEST(Bitplanes, ManySpeciesPlanes) {
  // More species than the old 8-color assumptions elsewhere: 12 planes,
  // each site in exactly one.
  const Configuration cfg = random_config(33, 5, 12, 41);
  const SpeciesBitplanes planes(cfg);
  EXPECT_TRUE(planes.matches(cfg));
  for (std::int32_t x = 0; x < 33; ++x) {
    int set = 0;
    for (Species sp = 0; sp < 12; ++sp) set += planes.bit(sp, x, 2) ? 1 : 0;
    ASSERT_EQ(set, 1) << x;
  }
}

}  // namespace
}  // namespace casurf
