#include "ca/rate_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ca/lpndca.hpp"
#include "ca/pndca.hpp"
#include "ca/tpndca.hpp"
#include "core/audit.hpp"
#include "models/diffusion.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "partition/coloring.hpp"
#include "partition/type_partition.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

/// Brute-force recount of the cache invariant: count(slot, c, t) must equal
/// the number of sites s with chunk_of(s) == c and reaction t enabled at s.
void expect_counts_match_brute_force(const EnabledRateCache& cache, std::size_t slot,
                                     const Partition& p, const ReactionModel& model,
                                     const Configuration& cfg, const char* context) {
  const auto num_types = static_cast<ReactionIndex>(model.num_reactions());
  std::vector<std::uint32_t> brute(p.num_chunks() * num_types, 0);
  for (ReactionIndex t = 0; t < num_types; ++t) {
    const ReactionType& rt = model.reaction(t);
    for (SiteIndex s = 0; s < cfg.size(); ++s) {
      if (rt.enabled(cfg, s)) ++brute[p.chunk_of(s) * num_types + t];
    }
  }
  for (ChunkId c = 0; c < p.num_chunks(); ++c) {
    for (ReactionIndex t = 0; t < num_types; ++t) {
      ASSERT_EQ(cache.count(slot, c, t), brute[c * num_types + t])
          << context << ": chunk " << c << " type " << model.reaction(t).name();
    }
  }
}

TEST(RateCache, InitialCountsMatchBruteForce) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  Configuration cfg(lat, 3, zgb.vacant);
  cfg.set(Vec2{1, 1}, zgb.co);
  cfg.set(Vec2{2, 1}, zgb.o);
  cfg.set(Vec2{5, 5}, zgb.o);

  EnabledRateCache cache(zgb.model, cfg);
  const Partition p = Partition::linear_form(lat, 1, 3, 5);
  ASSERT_EQ(cache.add_partition(p), 0u);
  expect_counts_match_brute_force(cache, 0, p, zgb.model, cfg, "initial");

  // Chunk rates are the k-weighted counts.
  for (ChunkId c = 0; c < p.num_chunks(); ++c) {
    double expected = 0;
    for (ReactionIndex t = 0; t < zgb.model.num_reactions(); ++t) {
      expected += zgb.model.reaction(t).rate() * static_cast<double>(cache.count(0, c, t));
    }
    EXPECT_DOUBLE_EQ(cache.chunk_rate(0, c), expected);
  }
}

TEST(RateCache, CumulativeTableNeverDrawsAnIdleChunk) {
  // Irreversible adsorption on a full lattice with vacancies in chunks 0
  // and 2 only: chunk 1 is an interior zero-rate band, chunks 3 and 4 a
  // trailing one. The table is the running sum of chunk_rate, follows the
  // counts after a commit, and no draw lands on an idle chunk, even at
  // u * total == total.
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  const Lattice lat(10, 10);
  const Partition p = Partition::linear_form(lat, 1, 3, 5);
  Configuration cfg(lat, 2, 1);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    if (p.chunk_of(s) == 0 || p.chunk_of(s) == 2) cfg.set(s, 0);
  }
  EnabledRateCache cache(m, cfg);
  cache.add_partition(p);
  const auto expect_running_sums = [&](const char* when) {
    const std::vector<double>& table = cache.chunk_cumulative(0);
    ASSERT_EQ(table.size(), p.num_chunks()) << when;
    double acc = 0;
    for (ChunkId c = 0; c < p.num_chunks(); ++c) {
      EXPECT_EQ(table[c], acc += cache.chunk_rate(0, c)) << when << ", chunk " << c;
    }
    for (const double u : {0.0, 0.5, std::nextafter(1.0, 0.0), 1.0}) {
      const auto c = static_cast<ChunkId>(sample_cumulative(table, u));
      EXPECT_GT(cache.chunk_rate(0, c), 0.0) << when << ", u=" << u << " chose " << c;
    }
  };
  expect_running_sums("built");
  const double before = cache.chunk_cumulative(0).back();
  cache.execute(cfg, m.reaction(0), p.chunk(2).front(), 0);
  EXPECT_EQ(cache.chunk_cumulative(0).back(), before - 1.0);
  expect_running_sums("after a commit");
}

TEST(RateCache, RefusesMismatchedPartition) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Configuration cfg(Lattice(6, 6), 2, 0);
  EnabledRateCache cache(m, cfg);
  EXPECT_THROW(cache.add_partition(Partition::single_chunk(Lattice(5, 5))),
               std::invalid_argument);
}

TEST(RateCache, IncrementalRefreshTracksWrites) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  Configuration cfg(lat, 3, zgb.vacant);
  EnabledRateCache cache(zgb.model, cfg);
  const Partition p = Partition::linear_form(lat, 1, 3, 5);
  cache.add_partition(p);

  // Random walk of single-site writes, each run through the cache as a
  // one-site reaction. The counts must track the brute-force recount the
  // whole way.
  Xoshiro256 rng(7);
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<SiteIndex>(uniform_below(rng, cfg.size()));
    const auto next = static_cast<Species>(uniform_below(rng, 3));
    const ReactionType write("write", 1.0, {exact({0, 0}, cfg.get(s), next)});
    cache.execute(cfg, write, s, 0);
    if (i % 25 == 0) {
      expect_counts_match_brute_force(cache, 0, p, zgb.model, cfg, "write walk");
    }
  }
  expect_counts_match_brute_force(cache, 0, p, zgb.model, cfg, "write walk end");
}

TEST(RateCache, PrunedRefreshMatchesAFreshBuild) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  auto pt = models::make_pt100();
  const Lattice lat(15, 15);
  const std::pair<const ReactionModel*, Configuration> cases[] = {
      {&zgb.model, Configuration(lat, 3, zgb.vacant)},
      {&pt.model, Configuration(lat, pt.model.species().size(), pt.hex_vac)}};
  for (auto [model, cfg] : cases) {
    SCOPED_TRACE(model->num_reactions());
    EnabledRateCache cache(*model, cfg);
    cache.add_partition(Partition::linear_form(lat, 1, 3, 5));
    Xoshiro256 rng(61);
    // A random enabled (site, type) pair of the current configuration.
    const auto pick = [&]() -> std::optional<std::pair<SiteIndex, ReactionIndex>> {
      for (int attempt = 0; attempt < 10000; ++attempt) {
        const auto s = static_cast<SiteIndex>(uniform_below(rng, cfg.size()));
        const auto t =
            static_cast<ReactionIndex>(uniform_below(rng, model->num_reactions()));
        if (model->reaction(t).enabled(cfg, s)) return std::pair{s, t};
      }
      return std::nullopt;
    };
    // verify() recomputes every plane, enabledness bit and count from the
    // lattice: a clean verify means the cache equals a fresh build after
    // every execution through it.
    std::vector<std::string> issues;
    for (int i = 0; i < 300; ++i) {
      const auto fire = pick();
      ASSERT_TRUE(fire.has_value());
      cache.execute(cfg, model->reaction(fire->second), fire->first, 0);
      ASSERT_TRUE(cache.verify(cfg, issues)) << "execution " << i << ": " << issues[0];
    }
  }
}

TEST(RateCache, AuditDetectsAndRepairsCorruptBitset) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 20);
  PndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                     {Partition::linear_form(lat, 1, 3, 5)}, 5,
                     ChunkPolicy::kRateWeighted);
  sim.advance_to(1.0);
  EnabledRateCache& cache = *sim.mutable_rate_cache_for_test();
  const auto audit = [&](bool repair) {
    AuditReport report;
    sim.audit_derived_state(report, repair);
    return report;
  };

  // One enabled-type bit, counts left alone.
  cache.corrupt_enabled_for_test(7, 2);
  const AuditReport bitset = audit(/*repair=*/true);
  ASSERT_EQ(bitset.issues.size(), 1u) << bitset.to_string();
  EXPECT_NE(bitset.issues[0].detail.find("site 7"), std::string::npos);
  EXPECT_TRUE(audit(false).issues.empty()) << "repair left the bitset stale";
}

TEST(RateCache, InvariantHoldsOver1000ZgbSteps) {
  // The acceptance-criterion test: counts == brute-force recount after
  // every MC step of a rate-weighted ZGB trajectory, >= 1000 steps.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(10, 10);
  const Partition p = Partition::linear_form(lat, 1, 3, 5);
  PndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant), {p}, 21,
                     ChunkPolicy::kRateWeighted);
  ASSERT_NE(sim.rate_cache(), nullptr);
  for (int step = 0; step < 1000; ++step) {
    sim.mc_step();
    expect_counts_match_brute_force(*sim.rate_cache(), 0, p, zgb.model,
                                    sim.configuration(), "ZGB step");
  }
  // The brute-force reference and the cache agree on the chunk rates too.
  for (ChunkId c = 0; c < p.num_chunks(); ++c) {
    EXPECT_NEAR(sim.rate_cache()->chunk_rate(0, c), sim.enabled_rate_in_chunk(p, c),
                1e-9 * (1.0 + sim.enabled_rate_in_chunk(p, c)));
  }
}

TEST(RateCache, InvariantHoldsAcrossCyclingPartitions) {
  const ReactionModel m = ads_des_model(1.5, 0.5);
  const Lattice lat(6, 6);
  const Partition p0 = Partition::blocks(lat, 3, 3);
  const Partition p1 = Partition::blocks(lat, 3, 3, {1, 1});
  PndcaSimulator sim(m, Configuration(lat, 2, 0), {p0, p1}, 23,
                     ChunkPolicy::kRateWeighted);
  ASSERT_EQ(sim.rate_cache()->num_slots(), 2u);
  for (int step = 0; step < 200; ++step) {
    sim.mc_step();
    expect_counts_match_brute_force(*sim.rate_cache(), 0, p0, m, sim.configuration(),
                                    "slot 0");
    expect_counts_match_brute_force(*sim.rate_cache(), 1, p1, m, sim.configuration(),
                                    "slot 1");
  }
}

TEST(RateCache, InvariantHoldsUnderThreadedEngine) {
  // The caller's commits refresh the cache after the workers' test phase;
  // verify() checks the bitset and the counts against a fresh
  // recount after every step. Pt(100)'s multi-species masks are where the
  // single-probe visit shortcuts fire; diffusion writes two sites per hop.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  auto pt = models::make_pt100();
  auto diffusion = models::make_diffusion();
  const Lattice lat(15, 15);
  Configuration half(lat, 2, diffusion.vacant);
  for (SiteIndex s = 0; s < half.size(); s += 2) half.set(s, diffusion.particle);
  const std::pair<const ReactionModel*, Configuration> cases[] = {
      {&zgb.model, Configuration(lat, 3, zgb.vacant)},
      {&pt.model, Configuration(lat, pt.model.species().size(), pt.hex_vac)},
      {&diffusion.model, half}};
  for (const auto& [model, init] : cases) {
    SCOPED_TRACE(model->num_reactions());
    PndcaSimulator sim(*model, init, {make_partition(lat, *model)}, 29,
                       ChunkPolicy::kRateWeighted, TimeMode::kStochastic, 4);
    std::vector<std::string> issues;
    for (int step = 0; step < 300; ++step) {
      sim.mc_step();
      ASSERT_TRUE(sim.rate_cache()->verify(sim.configuration(), issues))
          << "step " << step << ": " << issues[0];
    }
    EXPECT_GT(sim.counters().executed, 0u);
  }
}

TEST(RateCache, OtherPoliciesDoNotPayForTheCache) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  PndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                     {Partition::linear_form(lat, 1, 3, 5)}, 31,
                     ChunkPolicy::kRandomOrder);
  EXPECT_EQ(sim.rate_cache(), nullptr);
}

TEST(RateCache, RebuildRecoversFromExternalWrites) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Lattice lat(6, 6);
  Configuration cfg(lat, 2, 0);
  EnabledRateCache cache(m, cfg);
  const Partition p = Partition::blocks(lat, 3, 3);
  cache.add_partition(p);
  // Mutate without refreshing, then rebuild.
  for (SiteIndex s = 0; s < cfg.size(); s += 2) cfg.set(s, 1);
  cache.rebuild(cfg);
  expect_counts_match_brute_force(cache, 0, p, m, cfg, "rebuild");
}

TEST(LPndcaRateWeighted, InvariantAndEquilibrium) {
  // With k_a == k_d every site always carries exactly one enabled reaction
  // at a common rate, so rate-weighted chunk selection coincides with the
  // size-proportional draw and the independent-site equilibrium must hold.
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Lattice lat(20, 20);
  const Partition p = Partition::linear_form(lat, 1, 3, 5);
  LPndcaSimulator sim(m, Configuration(lat, 2, 0), p, 41, 16, TimeMode::kStochastic,
                      ChunkWeighting::kRateWeighted);
  ASSERT_NE(sim.rate_cache(), nullptr);
  sim.advance_to(25.0);
  expect_counts_match_brute_force(*sim.rate_cache(), 0, p, m, sim.configuration(),
                                  "L-PNDCA");
  double avg = 0;
  const int samples = 60;
  for (int i = 0; i < samples; ++i) {
    sim.mc_step();
    avg += sim.configuration().coverage(1);
  }
  EXPECT_NEAR(avg / samples, 0.5, 0.03);
  expect_counts_match_brute_force(*sim.rate_cache(), 0, p, m, sim.configuration(),
                                  "L-PNDCA end");
}

TEST(TPndcaRateWeighted, InvariantAcrossSubsetSlots) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(12, 12);
  const std::vector<TypeSubset> subsets = make_type_partition(lat, zgb.model);
  TPndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant), subsets, 43,
                      ChunkWeighting::kRateWeighted);
  ASSERT_NE(sim.rate_cache(), nullptr);
  ASSERT_EQ(sim.rate_cache()->num_slots(), subsets.size());
  for (int step = 0; step < 500; ++step) sim.mc_step();
  EXPECT_GT(sim.counters().executed, 0u);
  for (std::size_t j = 0; j < subsets.size(); ++j) {
    expect_counts_match_brute_force(*sim.rate_cache(), j, sim.subsets()[j].chunks,
                                    zgb.model, sim.configuration(), "TPNDCA slot");
  }
  // Maintained species counts survive the cached path too.
  std::vector<std::uint64_t> recount(3, 0);
  for (SiteIndex s = 0; s < sim.configuration().size(); ++s) {
    ++recount[sim.configuration().get(s)];
  }
  for (Species s = 0; s < 3; ++s) EXPECT_EQ(sim.configuration().count(s), recount[s]);
}

}  // namespace
}  // namespace casurf
