#include "obs/spatial.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "io/atomic_file.hpp"
#include "models/zgb.hpp"
#include "obs/json.hpp"
#include "partition/conflict.hpp"
#include "partition/partition.hpp"

namespace casurf::obs {
namespace {

using json::Value;

// The von Neumann star the nearest-neighbor models conflict over.
std::vector<Vec2> nn_offsets() {
  return {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
}

TEST(SpatialMap, CountsAttemptsFiresRejects) {
  SpatialMap map(16);
  map.record_attempt(3);
  map.record_attempt(3);
  map.record_fire(3);
  map.record_attempt(7);
  EXPECT_EQ(map.attempts(3), 2u);
  EXPECT_EQ(map.fires(3), 1u);
  EXPECT_EQ(map.rejects(3), 1u);
  EXPECT_EQ(map.attempts(7), 1u);
  EXPECT_EQ(map.fires(7), 0u);
  EXPECT_EQ(map.total_attempts(), 3u);
  EXPECT_EQ(map.total_fires(), 1u);
  map.reset();
  EXPECT_EQ(map.total_attempts(), 0u);
  EXPECT_EQ(map.attempts(3), 0u);
}

TEST(SpatialProbe, NullMapIsOffAndAttachedMapRecords) {
  SpatialProbe probe;
  probe.attempt(0);  // no map: must be a harmless no-op
  probe.fire(0);
  EXPECT_EQ(probe.map(), nullptr);
  SpatialMap map(4);
  probe.attach(&map);
  probe.attempt(2);
  probe.fire(2);
  EXPECT_EQ(map.attempts(2), 1u);
  EXPECT_EQ(map.fires(2), 1u);
  probe.attach(nullptr);
  probe.attempt(2);
  EXPECT_EQ(map.attempts(2), 1u);
}

TEST(SeamMask, BlocksPartitionClassifiesBordersOnly) {
  // 8x8 in 4x4 blocks under the von Neumann star: a site is seam iff it
  // lies on its block's border ring; each block keeps a 2x2 interior.
  const Lattice lat(8, 8);
  const Partition part = Partition::blocks(lat, 4, 4);
  const std::vector<std::uint8_t> mask = seam_mask(part, nn_offsets());
  std::size_t seam = 0;
  for (SiteIndex s = 0; s < lat.size(); ++s) {
    const Vec2 p = lat.coord(s);
    const bool border = p.x % 4 == 0 || p.x % 4 == 3 || p.y % 4 == 0 || p.y % 4 == 3;
    EXPECT_EQ(mask[s] != 0, border) << "site " << s;
    seam += mask[s];
  }
  EXPECT_EQ(seam, 64u - 4u * 4u);
}

TEST(SeamMask, NoOffsetsMeansNoSeams) {
  const Partition part = Partition::blocks(Lattice(4, 4), 2, 2);
  for (const std::uint8_t m : seam_mask(part, {})) EXPECT_EQ(m, 0);
}

TEST(SeamMask, SingleChunkHasNoSeams) {
  const Partition part = Partition::single_chunk(Lattice(6, 6));
  for (const std::uint8_t m : seam_mask(part, nn_offsets())) EXPECT_EQ(m, 0);
}

TEST(Summarize, RejectsSiteCountMismatch) {
  const SpatialMap map(9);
  const Partition part = Partition::blocks(Lattice(4, 4), 2, 2);
  EXPECT_THROW(summarize(map, part, nn_offsets()), std::invalid_argument);
}

TEST(Summarize, EmptyMapIsBalancedAndRatioUndefined) {
  const SpatialMap map(64);
  const Partition part = Partition::blocks(Lattice(8, 8), 4, 4);
  const SpatialSummary sum = summarize(map, part, nn_offsets());
  ASSERT_EQ(sum.per_chunk.size(), 4u);
  for (const ChunkActivity& c : sum.per_chunk) {
    EXPECT_EQ(c.sites, 16u);
    EXPECT_EQ(c.attempts, 0u);
    EXPECT_EQ(c.fires, 0u);
  }
  EXPECT_DOUBLE_EQ(sum.chunk_fire_imbalance, 1.0);
  EXPECT_EQ(sum.seam_sites, 48u);
  EXPECT_EQ(sum.interior_sites, 16u);
  EXPECT_DOUBLE_EQ(sum.seam_interior_fire_ratio, 0.0);
}

TEST(Summarize, HandComputedChunkAndSeamAccounting) {
  // 8x8 in 4x4 blocks. Fire twice at an interior site of block 0 and once
  // at a seam site of block 1; attempt everywhere we fire plus one rejected
  // attempt on a block-2 seam site.
  const Lattice lat(8, 8);
  const Partition part = Partition::blocks(lat, 4, 4);
  SpatialMap map(lat.size());
  const SiteIndex interior0 = lat.index({1, 1});   // block 0 interior
  const SiteIndex seam1 = lat.index({4, 0});       // block 1 border
  const SiteIndex seam2 = lat.index({0, 4});       // block 2 border
  map.record_attempt(interior0);
  map.record_fire(interior0);
  map.record_attempt(interior0);
  map.record_fire(interior0);
  map.record_attempt(seam1);
  map.record_fire(seam1);
  map.record_attempt(seam2);

  const SpatialSummary sum = summarize(map, part, nn_offsets());
  ASSERT_EQ(sum.per_chunk.size(), 4u);
  EXPECT_EQ(sum.per_chunk[part.chunk_of(interior0)].fires, 2u);
  EXPECT_EQ(sum.per_chunk[part.chunk_of(seam1)].fires, 1u);
  EXPECT_EQ(sum.per_chunk[part.chunk_of(seam2)].attempts, 1u);
  EXPECT_EQ(sum.per_chunk[part.chunk_of(seam2)].fires, 0u);
  // Rates per chunk: {2, 1, 0, 0} / 16; imbalance = max / mean = 2 / 0.75.
  EXPECT_DOUBLE_EQ(sum.chunk_fire_imbalance, (2.0 / 16.0) / (0.75 / 16.0));
  EXPECT_EQ(sum.seam_fires, 1u);
  EXPECT_EQ(sum.interior_fires, 2u);
  EXPECT_EQ(sum.seam_attempts, 2u);
  EXPECT_EQ(sum.interior_attempts, 2u);
  // (1 / 48) / (2 / 16)
  EXPECT_DOUBLE_EQ(sum.seam_interior_fire_ratio, (1.0 / 48.0) / (2.0 / 16.0));
}

TEST(HeatmapJson, NullMapAndSummaryEmitNulls) {
  const Configuration cfg(Lattice(3, 2), 2, 1);
  const Value doc =
      Value::parse(heatmap_json(cfg, {"*", "A"}, 1.5, nullptr, nullptr));
  EXPECT_EQ(doc.string_or("schema", ""), "casurf-heatmap/1");
  EXPECT_EQ(doc.at("width").as_u64(), 3u);
  EXPECT_EQ(doc.at("height").as_u64(), 2u);
  EXPECT_DOUBLE_EQ(doc.number_or("time", 0), 1.5);
  ASSERT_EQ(doc.at("species").items().size(), 2u);
  EXPECT_EQ(doc.at("species").items()[1].as_string(), "A");
  ASSERT_EQ(doc.at("occupancy").items().size(), 6u);
  EXPECT_EQ(doc.at("occupancy").items()[0].as_u64(), 1u);
  EXPECT_TRUE(doc.at("attempts").is_null());
  EXPECT_TRUE(doc.at("fires").is_null());
  EXPECT_TRUE(doc.at("summary").is_null());
}

TEST(HeatmapJson, GridsAndSummaryRoundTrip) {
  const Lattice lat(4, 4);
  Configuration cfg(lat, 2, 0);
  cfg.set(5, 1);
  SpatialMap map(lat.size());
  map.record_attempt(5);
  map.record_fire(5);
  const Partition part = Partition::blocks(lat, 2, 2);
  const SpatialSummary sum = summarize(map, part, nn_offsets());
  const Value doc =
      Value::parse(heatmap_json(cfg, {"*", "A"}, 2.0, &map, &sum));
  ASSERT_TRUE(doc.at("attempts").is_array());
  ASSERT_EQ(doc.at("attempts").items().size(), 16u);
  ASSERT_TRUE(doc.at("summary").is_object());
  EXPECT_EQ(doc.at("summary").at("chunks").as_u64(), 4u);
  EXPECT_EQ(doc.at("summary").at("per_chunk").items().size(), 4u);
  EXPECT_EQ(doc.at("attempts").items()[5].as_u64(), 1u);
  EXPECT_EQ(doc.at("fires").items()[5].as_u64(), 1u);
}

TEST(HeatmapJson, RejectsMismatchedMap) {
  const Configuration cfg(Lattice(4, 4), 2, 0);
  const SpatialMap wrong(9);
  EXPECT_THROW(heatmap_json(cfg, {"*", "A"}, 0, &wrong, nullptr),
               std::invalid_argument);
}

TEST(ActivityPpm, HeaderSizeAndColdStart) {
  const Lattice lat(5, 3);
  SpatialMap map(lat.size());
  const std::string path = testing::TempDir() + "/casurf_activity_cold.ppm";
  write_activity_ppm(path, map, lat, ActivityChannel::kAttempts);
  const std::string body = io::read_file(path);
  const std::string header = "P6\n5 3\n255\n";
  ASSERT_EQ(body.size(), header.size() + 3u * 15u);
  EXPECT_EQ(body.substr(0, header.size()), header);
  // Nothing recorded: every pixel black.
  for (std::size_t i = header.size(); i < body.size(); ++i) {
    EXPECT_EQ(body[i], '\0');
  }
}

TEST(ActivityPpm, HottestSiteIsWhite) {
  const Lattice lat(2, 2);
  SpatialMap map(lat.size());
  map.record_fire(3);
  const std::string path = testing::TempDir() + "/casurf_activity_hot.ppm";
  write_activity_ppm(path, map, lat, ActivityChannel::kFires);
  const std::string body = io::read_file(path);
  const std::string header = "P6\n2 2\n255\n";
  ASSERT_EQ(body.size(), header.size() + 12u);
  // Site 3 holds the channel maximum: full white. Site 0 never fired: black.
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(static_cast<unsigned char>(body[header.size() + 9 + c]), 255u);
    EXPECT_EQ(static_cast<unsigned char>(body[header.size() + c]), 0u);
  }
}

/// Every engine must agree with its own execution counter: one fire
/// recorded per executed reaction, and at least as many attempts.
TEST(SimulatorIntegration, FiresMatchExecutedCounter) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  for (const Algorithm algo :
       {Algorithm::kRsm, Algorithm::kVssm, Algorithm::kFrm, Algorithm::kNdca,
        Algorithm::kPndca, Algorithm::kLPndca, Algorithm::kTPndca,
        Algorithm::kParallelPndca}) {
    SimulationOptions opt;
    opt.algorithm = algo;
    opt.seed = 17;
    opt.threads = 3;
    auto sim = make_simulator(
        zgb.model, Configuration(Lattice(24, 24), 3, zgb.vacant), opt);
    SpatialMap map(sim->configuration().size());
    sim->attach({nullptr, nullptr, &map});
    sim->advance_to(3.0);
    EXPECT_EQ(map.total_fires(), sim->counters().executed) << sim->name();
    EXPECT_GE(map.total_attempts(), map.total_fires()) << sim->name();
    EXPECT_GT(map.total_fires(), 0u) << sim->name();
  }
}

}  // namespace
}  // namespace casurf::obs
