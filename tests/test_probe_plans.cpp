#include "model/probe_plans.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

  Rechecker rechecker(model, cfg);
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

}  // namespace
}  // namespace casurf
