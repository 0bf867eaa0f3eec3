#include "io/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "models/zgb.hpp"

namespace casurf::io {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  // PID-suffixed: ctest -j runs each test case as its own concurrent
  // process, so a fixed name would be clobbered by sibling cases.
  std::string path_ = ::testing::TempDir() + "casurf_snapshot_test." +
                      std::to_string(::getpid()) + ".txt";
  std::string ppm_ = ::testing::TempDir() + "casurf_snapshot_test." +
                     std::to_string(::getpid()) + ".ppm";
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(ppm_.c_str());
  }
};

TEST_F(SnapshotTest, RoundTripPreservesState) {
  const auto zgb = models::make_zgb();
  Configuration cfg(Lattice(12, 7), 3, zgb.vacant);
  cfg.set(Vec2{3, 2}, zgb.co);
  cfg.set(Vec2{11, 6}, zgb.o);
  cfg.set(Vec2{0, 0}, zgb.o);

  save_snapshot(path_, cfg, zgb.model.species());
  const Snapshot snap = load_snapshot(path_);

  EXPECT_EQ(snap.config, cfg);
  EXPECT_EQ(snap.species, (std::vector<std::string>{"*", "CO", "O"}));
  for (Species s = 0; s < 3; ++s) EXPECT_EQ(snap.config.count(s), cfg.count(s));
}

TEST_F(SnapshotTest, MismatchedSpeciesSetRejected) {
  const Configuration cfg(Lattice(4, 4), 3, 0);
  const SpeciesSet wrong({"a", "b"});  // 2 != 3
  EXPECT_THROW(save_snapshot(path_, cfg, wrong), std::runtime_error);
}

TEST_F(SnapshotTest, LoadRejectsBadMagic) {
  std::ofstream(path_) << "not-a-snapshot 9\n";
  EXPECT_THROW((void)load_snapshot(path_), std::runtime_error);
}

TEST_F(SnapshotTest, LoadRejectsBadSpeciesIndex) {
  std::ofstream(path_) << "casurf-snapshot 1\nlattice 2 1\nspecies 2 * A\ndata\n0 7\n";
  EXPECT_THROW((void)load_snapshot(path_), std::runtime_error);
}

TEST_F(SnapshotTest, LoadRejectsTruncatedData) {
  std::ofstream(path_) << "casurf-snapshot 1\nlattice 3 2\nspecies 2 * A\ndata\n0 1 0\n";
  EXPECT_THROW((void)load_snapshot(path_), std::runtime_error);
}

TEST_F(SnapshotTest, LoadRejectsALatticeTooLargeToIndex) {
  // 65536 x 65537 sites overflow a 32-bit site index: the header alone is
  // refused, before any site is allocated or read.
  std::ofstream(path_) << "casurf-snapshot 1\nlattice 65536 65537\nspecies 2 * A\ndata\n0 1\n";
  try {
    (void)load_snapshot(path_);
    FAIL() << "oversized lattice accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("load_snapshot: lattice 65536 x 65537"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotTest, MissingFileThrows) {
  EXPECT_THROW((void)load_snapshot("/nonexistent/zzz.snap"), std::runtime_error);
}

TEST_F(SnapshotTest, BitFlippedDataCellIsRejectedWithCoordinates) {
  const auto zgb = models::make_zgb();
  const Configuration cfg(Lattice(6, 4), 3, zgb.vacant);
  save_snapshot(path_, cfg, zgb.model.species());

  // Flip a data digit into a non-numeric byte — the parse must fail and
  // name the cell, not silently read a wrong lattice.
  std::ifstream in(path_);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t data_pos = text.find("data\n") + 5;
  text[data_pos] = '@';
  std::ofstream(path_) << text;

  try {
    (void)load_snapshot(path_);
    FAIL() << "corrupted snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(0,0)"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, RemapTranslatesReorderedSpeciesByName) {
  // A snapshot written with species order {*, CO, O}, loaded into a model
  // that lists the same names as {O, *, CO}: every site must be translated
  // to the loader's index for the same name.
  const auto zgb = models::make_zgb();
  Configuration cfg(Lattice(4, 3), 3, zgb.vacant);
  cfg.set(Vec2{1, 1}, zgb.co);
  cfg.set(Vec2{2, 2}, zgb.o);
  save_snapshot(path_, cfg, zgb.model.species());

  const Snapshot snap = load_snapshot(path_);
  const SpeciesSet reordered({"O", "*", "CO"});
  const Configuration remapped = remap_species(snap, reordered);

  EXPECT_EQ(remapped.get(remapped.lattice().index({1, 1})), 2);  // CO
  EXPECT_EQ(remapped.get(remapped.lattice().index({2, 2})), 0);  // O
  EXPECT_EQ(remapped.get(remapped.lattice().index({0, 0})), 1);  // vacant
  EXPECT_EQ(remapped.count(1), cfg.count(zgb.vacant));
  EXPECT_EQ(remapped.count(2), cfg.count(zgb.co));
  EXPECT_EQ(remapped.count(0), cfg.count(zgb.o));
}

TEST_F(SnapshotTest, RemapIsIdentityWhenOrdersAgree) {
  const auto zgb = models::make_zgb();
  Configuration cfg(Lattice(5, 5), 3, zgb.vacant);
  cfg.set(Vec2{3, 3}, zgb.o);
  save_snapshot(path_, cfg, zgb.model.species());
  const Snapshot snap = load_snapshot(path_);
  EXPECT_EQ(remap_species(snap, zgb.model.species()), cfg);
}

TEST_F(SnapshotTest, RemapRejectsUnknownSpeciesByName) {
  const auto zgb = models::make_zgb();
  const Configuration cfg(Lattice(3, 3), 3, zgb.vacant);
  save_snapshot(path_, cfg, zgb.model.species());
  const Snapshot snap = load_snapshot(path_);

  const SpeciesSet other({"*", "CO", "N2"});  // no "O"
  try {
    (void)remap_species(snap, other);
    FAIL() << "unknown species accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'O'"), std::string::npos) << e.what();
  }
}

TEST_F(SnapshotTest, PpmHasCorrectHeaderAndSize) {
  const Configuration cfg(Lattice(5, 3), 2, 0);
  write_ppm(ppm_, cfg);
  std::ifstream in(ppm_, std::ios::binary);
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 5);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> pixels(5 * 3 * 3);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
  in.get();
  EXPECT_TRUE(in.eof());
}

TEST_F(SnapshotTest, PpmUsesPalettePerSpecies) {
  Configuration cfg(Lattice(2, 1), 2, 0);
  cfg.set(Vec2{1, 0}, 1);
  write_ppm(ppm_, cfg);
  std::ifstream in(ppm_, std::ios::binary);
  std::string line;
  std::getline(in, line);  // P6
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  unsigned char px[6];
  in.read(reinterpret_cast<char*>(px), 6);
  const Rgb c0 = default_palette(0);
  const Rgb c1 = default_palette(1);
  EXPECT_EQ(px[0], c0.r);
  EXPECT_EQ(px[1], c0.g);
  EXPECT_EQ(px[2], c0.b);
  EXPECT_EQ(px[3], c1.r);
  EXPECT_EQ(px[4], c1.g);
  EXPECT_EQ(px[5], c1.b);
}

TEST(DefaultPalette, CyclesOccupiedColorsBeyondEight) {
  // The cycle covers the seven OCCUPIED colors only: species 8 wraps onto
  // species 1's color, species 9 onto species 2's, never onto the vacant
  // near-white (the regression: s % 8 gave species 8 the vacant color).
  const auto same = [](Rgb a, Rgb b) {
    return a.r == b.r && a.g == b.g && a.b == b.b;
  };
  EXPECT_TRUE(same(default_palette(8), default_palette(1)));
  EXPECT_TRUE(same(default_palette(9), default_palette(2)));
  EXPECT_TRUE(same(default_palette(15), default_palette(1)));
  for (Species s = 1; s < 32; ++s) {
    EXPECT_FALSE(same(default_palette(s), default_palette(0)))
        << "occupied species " << int(s) << " renders as vacant";
  }
}

TEST(DefaultPalette, DistinctWithinFirstEight) {
  for (Species a = 0; a < 8; ++a) {
    for (Species b = a + 1; b < 8; ++b) {
      const Rgb ca = default_palette(a);
      const Rgb cb = default_palette(b);
      EXPECT_FALSE(ca.r == cb.r && ca.g == cb.g && ca.b == cb.b)
          << "species " << int(a) << " and " << int(b) << " share a color";
    }
  }
}

TEST_F(SnapshotTest, PpmManySpeciesOccupiedSitesVisible) {
  // A 12-species model: every occupied species must render in a non-vacant
  // color, deterministically, including the ones past the palette table.
  constexpr Species kNum = 12;
  Configuration cfg(Lattice(kNum, 1), kNum, 0);
  for (Species s = 1; s < kNum; ++s) cfg.set(Vec2{s, 0}, s);
  write_ppm(ppm_, cfg);
  std::ifstream in(ppm_, std::ios::binary);
  std::string line;
  std::getline(in, line);  // P6
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  unsigned char px[kNum * 3];
  in.read(reinterpret_cast<char*>(px), sizeof px);
  const Rgb vac = default_palette(0);
  EXPECT_EQ(px[0], vac.r);
  for (Species s = 1; s < kNum; ++s) {
    const Rgb expect = default_palette(s);
    EXPECT_EQ(px[3 * s + 0], expect.r) << "species " << int(s);
    EXPECT_EQ(px[3 * s + 1], expect.g);
    EXPECT_EQ(px[3 * s + 2], expect.b);
    EXPECT_FALSE(px[3 * s + 0] == vac.r && px[3 * s + 1] == vac.g &&
                 px[3 * s + 2] == vac.b)
        << "species " << int(s) << " rendered vacant-white";
  }
}

}  // namespace
}  // namespace casurf::io
