// The law of PNDCA's (sweep, site) streams, at a fixed seed: the site's
// stream word is seed_hash ^ mix64(step_word(sweep) + site), and its first
// output draws the type through the alias table's slot and 32-bit flip. Two
// mixes per trial leave less avalanche between adjacent keys than four, so
// besides the type frequencies these suites test that the types drawn at
// neighbouring sites of a chunk in one sweep, and at one site in successive
// sweeps, are independent (chi-square on the pair table, p > 0.001).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ca/fastpath.hpp"
#include "draw_law.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "partition/partition.hpp"
#include "rng/counter_rng.hpp"

namespace casurf {
namespace {

constexpr std::size_t kLawTrials = std::size_t{1} << 20;
const std::uint64_t kSeedHash = CounterRng::seed_hash(2024);

/// The types sample_types draws for `sites` in sweep `sweep`.
std::vector<ReactionIndex> types_of(const ReactionModel& model, std::uint64_t sweep,
                                    const std::vector<SiteIndex>& sites) {
  std::vector<ReactionIndex> types(sites.size());
  sample_types(sweep, kSeedHash, sites.data(), sites.size(), model.alias_table(),
               types.data());
  return types;
}

std::vector<SiteIndex> first_sites(std::size_t n) {
  std::vector<SiteIndex> sites(n);
  for (std::size_t s = 0; s < n; ++s) sites[s] = static_cast<SiteIndex>(s);
  return sites;
}

TEST(PndcaDrawLaw, TypesFollowTheRates) {
  // ZGB's seven columns sit in registers; Pt(100)'s 39 are gathered.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  auto pt = models::make_pt100();
  const std::vector<SiteIndex> sites = first_sites(kLawTrials);
  for (const ReactionModel* model : {&zgb.model, &pt.model}) {
    SCOPED_TRACE(model->num_reactions());
    std::vector<double> count(model->num_reactions(), 0.0);
    for (const ReactionIndex t : types_of(*model, 3, sites)) ++count[t];
    std::vector<double> expected;
    for (const ReactionType& rt : model->reactions()) {
      expected.push_back(static_cast<double>(kLawTrials) * rt.rate() / model->total_rate());
    }
    const double chi2 = law::pearson(count, expected);
    EXPECT_GT(stats::chi_square_p(chi2, count.size() - 1), 0.001) << "chi2 " << chi2;
  }
}

TEST(PndcaDrawLaw, NeighbouringSitesOfAChunkAreIndependent) {
  // Fig 4's five-chunk tile of a 1030 x 1030 lattice: consecutive sites of
  // a chunk's list, five apart along a row, pair up over 2^20 times.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(1030, 1030);
  const Partition tile = Partition::linear_form(lat, 1, 3, 5);
  const std::size_t types = zgb.model.num_reactions();
  std::vector<double> pairs(types * types, 0.0);
  for (ChunkId c = 0; c < tile.num_chunks(); ++c) {
    const std::vector<ReactionIndex> drawn = types_of(zgb.model, 7, tile.chunk(c));
    for (std::size_t i = 0; i + 1 < drawn.size(); ++i) {
      ++pairs[drawn[i] * types + drawn[i + 1]];
    }
  }
  EXPECT_GT(law::independence_p(pairs, types, types), 0.001);
}

TEST(PndcaDrawLaw, OneSiteOverSuccessiveSweepsIsIndependent) {
  // Sweeps 7 -> 8 and 8 -> 9 at each of 2^20 sites, so both parities of
  // the sweep counter change between the two draws of a pair.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const std::vector<SiteIndex> sites = first_sites(kLawTrials);
  const std::size_t types = zgb.model.num_reactions();
  std::vector<double> pairs(types * types, 0.0);
  std::vector<ReactionIndex> before = types_of(zgb.model, 7, sites);
  for (const std::uint64_t sweep : {8u, 9u}) {
    const std::vector<ReactionIndex> after = types_of(zgb.model, sweep, sites);
    for (std::size_t s = 0; s < sites.size(); ++s) ++pairs[before[s] * types + after[s]];
    before = after;
  }
  EXPECT_GT(law::independence_p(pairs, types, types), 0.001);
}

}  // namespace
}  // namespace casurf
