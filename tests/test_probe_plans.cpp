#include "model/probe_plans.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

// Species *, A, B. Each type's first transform watches two species and its
// second watches one, so the probe plans' selectivity sort reverses both
// types' probes; the recheck order must not follow that sort.
ReactionModel order_model() {
  const SpeciesMask a_or_b = species_bit(1) | species_bit(2);
  ReactionModel m(SpeciesSet({"*", "A", "B"}));
  m.add(ReactionType("move", 1.0, {Transform{{0, 0}, a_or_b, 0}, exact({1, 0}, 0, 1)}));
  m.add(ReactionType("pair", 1.0, {require({0, 0}, a_or_b), exact({0, -1}, 2, 0)}));
  return m;
}

// VSSM's enabled-set layout and FRM's random draws depend on the order in
// which flips are found, so the visit order is part of the contract.
TEST(Rechecker, VisitsByWrittenSiteThenTypeThenTransformOrder) {
  const ReactionModel model = order_model();
  const Lattice lat(5, 5);
  Configuration cfg(lat, 3, 0);
  const SiteIndex s = lat.index({2, 2});
  cfg.set(s, 1);
  const ReactionType& move = model.reaction(0);
  ASSERT_TRUE(move.enabled(cfg, s));

  Rechecker rechecker(model, lat);
  const Species* old_species = rechecker.execute(cfg, move, s);
  EXPECT_EQ(old_species[0], 1);
  EXPECT_EQ(old_species[1], 0);
  std::vector<std::pair<ReactionIndex, SiteIndex>> visits;
  rechecker.after_fire(cfg, move, s, old_species,
                       [&](ReactionIndex t, SiteIndex anchor, bool now) {
                         EXPECT_EQ(now, model.reaction(t).enabled(cfg, anchor));
                         visits.emplace_back(t, anchor);
                       });

  // Every table entry here is a single probe, so the known old species prune
  // exactly the entries whose mask holds both or neither of a write's old
  // and new species; the visits that remain keep the order.
  struct Write {
    Vec2 at;
    Species old_species, new_species;
  };
  std::vector<std::pair<ReactionIndex, SiteIndex>> want;
  for (const Write& w : {Write{{2, 2}, 1, 0}, Write{{3, 2}, 0, 1}}) {
    for (ReactionIndex t = 0; t < model.num_reactions(); ++t) {
      for (const Transform& tr : model.reaction(t).transforms()) {
        if (mask_contains(tr.src, w.old_species) == mask_contains(tr.src, w.new_species)) {
          continue;
        }
        want.emplace_back(t, lat.index(lat.wrap(w.at - tr.offset)));
      }
    }
  }
  ASSERT_EQ(want.size(), 6u);
  EXPECT_EQ(visits, want);
}

// The rechecks hold no copy of the lattice: a write that bypasses the
// Rechecker is seen by the next fire's visits. Here "move" at (3, 2) needs
// (4, 2) vacant, which the outside write has just filled.
TEST(Rechecker, VisitsReadTheConfigurationAsItStands) {
  const ReactionModel model = order_model();
  const Lattice lat(5, 5);
  Configuration cfg(lat, 3, 0);
  const SiteIndex s = lat.index({2, 2});
  cfg.set(s, 1);
  Rechecker rechecker(model, lat);
  cfg.set(lat.index({4, 2}), 2);  // the outside write
  const ReactionType& move = model.reaction(0);
  ASSERT_TRUE(move.enabled(cfg, s));

  const Species* old_species = rechecker.execute(cfg, move, s);
  bool saw_the_write = false;
  rechecker.after_fire(cfg, move, s, old_species,
                       [&](ReactionIndex t, SiteIndex anchor, bool now) {
                         EXPECT_EQ(now, model.reaction(t).enabled(cfg, anchor))
                             << "type " << t << " at site " << anchor;
                         if (t == 0 && anchor == lat.index({3, 2})) {
                           saw_the_write = true;
                           EXPECT_FALSE(now);
                         }
                       });
  EXPECT_TRUE(saw_the_write);
}

// Species *, A, B: a type whose one transform matches every species, so
// it keeps no probe and is enabled everywhere; a type whose probes reach
// farther than the lattices below are wide or high; a hop pair; and two-
// and three-bit masks, one at dx = 64, which aliases the anchor at width 64.
ReactionModel row_model() {
  const SpeciesMask a = species_bit(1);
  const SpeciesMask b = species_bit(2);
  const SpeciesMask all = species_bit(0) | a | b;
  ReactionModel m(SpeciesSet({"*", "A", "B"}));
  m.add(ReactionType("any", 1.0, {Transform{{0, 0}, all, 1}}));
  m.add(ReactionType("far", 1.0,
                     {exact({0, 0}, 0, 1), require({70, -5}, a | b),
                      require({-130, 1}, a)}));
  m.add(ReactionType("hop", 1.0, {exact({0, 0}, 1, 0), exact({1, 0}, 0, 1)}));
  m.add(ReactionType("mix", 1.0,
                     {Transform{{0, 0}, a | b, 0}, require({-1, 1}, species_bit(0) | b),
                      require({64, 0}, b)}));
  return m;
}

Configuration random_config(const ReactionModel& model, std::int32_t w, std::int32_t h,
                            std::uint64_t seed) {
  Configuration cfg(Lattice(w, h), model.species().size(), 0);
  Xoshiro256 rng(seed);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    cfg.set(s, static_cast<Species>(uniform_below(rng, model.species().size())));
  }
  return cfg;
}

// The row evaluator behind the initial builds of VSSM's sets, FRM's queue
// and the rate cache's bitset: every bit must be the per-site answer of
// both the byte evaluator ProbePlans::enabled, which the rechecks use, and
// ReactionType::enabled, the bits past the width must be zero, and
// for_each_enabled must visit the enabled sites in raster order.
TEST(ProbePlans, RowEvaluatorMatchesPerSiteEnabledness) {
  const std::vector<std::pair<const char*, ReactionModel>> cases = {
      {"zgb", models::make_zgb().model},
      {"pt100", models::make_pt100().model},
      {"row_model", row_model()}};
  for (const auto& [name, model] : cases) {
    for (const std::int32_t w : {1, 2, 63, 64, 65, 129, 500}) {
      const std::int32_t h = w == 500 ? 2 : 3;
      const Configuration cfg = random_config(model, w, h, static_cast<std::uint64_t>(w));
      const SpeciesBitplanes planes(cfg);
      const ProbePlans probes(model, w, h);
      const Lattice& lat = cfg.lattice();
      std::vector<std::uint64_t> row(planes.words_per_row());
      for (ReactionIndex t = 0; t < model.num_reactions(); ++t) {
        std::vector<SiteIndex> raster;
        for (std::int32_t y = 0; y < h; ++y) {
          std::ranges::fill(row, ~std::uint64_t{0});  // the evaluator must overwrite
          probes.row_enabled(planes, t, y, row.data());
          for (std::size_t x = 0; x < 64 * row.size(); ++x) {
            const bool bit = (row[x >> 6] >> (x & 63)) & 1u;
            const auto xi = static_cast<std::int32_t>(x);
            if (xi >= w) {
              ASSERT_FALSE(bit) << name << " " << w << "x" << h << " type " << t
                                << ": padding bit " << x << " of row " << y;
              continue;
            }
            const SiteIndex s = lat.index({xi, y});
            const auto where = [&] {
              return std::string(name) + " " + std::to_string(w) + "x" +
                     std::to_string(h) + " type " + std::to_string(t) + " at (" +
                     std::to_string(x) + ", " + std::to_string(y) + ")";
            };
            ASSERT_EQ(bit, probes.enabled(cfg, t, xi, y)) << where();
            ASSERT_EQ(bit, model.reaction(t).enabled(cfg, s)) << where();
            if (bit) raster.push_back(s);
          }
        }
        std::vector<SiteIndex> visited;
        probes.for_each_enabled(planes, t, [&](SiteIndex s) { visited.push_back(s); });
        EXPECT_EQ(visited, raster) << name << " " << w << "x" << h << " type " << t;
      }
    }
  }
}

}  // namespace
}  // namespace casurf
