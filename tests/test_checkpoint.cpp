#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "dmc/frm.hpp"
#include "io/atomic_file.hpp"
#include "models/zgb.hpp"

namespace casurf {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, 8);
  return b;
}

class CheckpointTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  CheckpointTest() : zgb_(models::make_zgb()) {}

  std::unique_ptr<Simulator> make(std::int32_t size = 24, unsigned threads = 3) const {
    Configuration cfg(Lattice(size, size), zgb_.model.species().size(), zgb_.vacant);
    SimulationOptions opt;
    opt.algorithm = GetParam();
    opt.seed = 5;
    opt.l_trials = 2;
    opt.threads = threads;
    return make_simulator(zgb_.model, std::move(cfg), opt);
  }

  void TearDown() override {
    std::remove(path_.c_str());
  }

  models::ZgbModel zgb_;
  // PID-suffixed: ctest -j runs each test case as its own concurrent
  // process, so a fixed name would be clobbered by sibling cases.
  std::string path_ = ::testing::TempDir() + "casurf_checkpoint_test." +
                      std::to_string(::getpid()) + ".ck";
};

/// The core guarantee: interrupt at T/2, restore into a freshly
/// constructed simulator, continue — and land on exactly the state the
/// uninterrupted run reaches: same configuration, same counters, and the
/// same simulated time to the last mantissa bit.
TEST_P(CheckpointTest, ResumeIsBitIdentical) {
  auto uninterrupted = make();
  uninterrupted->advance_to(2.0);
  uninterrupted->advance_to(4.0);

  auto first_half = make();
  first_half->advance_to(2.0);
  io::save_checkpoint(path_, *first_half, "user-payload");

  auto resumed = make();
  EXPECT_EQ(io::restore_checkpoint(path_, *resumed), "user-payload");
  EXPECT_EQ(bits(resumed->time()), bits(first_half->time()));
  resumed->advance_to(4.0);

  EXPECT_EQ(resumed->configuration(), uninterrupted->configuration());
  EXPECT_EQ(bits(resumed->time()), bits(uninterrupted->time()));
  EXPECT_EQ(resumed->counters().trials, uninterrupted->counters().trials);
  EXPECT_EQ(resumed->counters().executed, uninterrupted->counters().executed);
  EXPECT_EQ(resumed->counters().steps, uninterrupted->counters().steps);
  EXPECT_EQ(resumed->counters().executed_per_type,
            uninterrupted->counters().executed_per_type);
}

TEST_P(CheckpointTest, PeekReportsMetadataWithoutASimulator) {
  auto sim = make();
  sim->advance_to(1.0);
  io::save_checkpoint(path_, *sim);

  const io::CheckpointInfo info = io::peek_checkpoint(path_);
  EXPECT_EQ(info.version, io::kCheckpointVersion);
  EXPECT_EQ(info.algorithm, sim->name());
  EXPECT_EQ(info.width, 24);
  EXPECT_EQ(info.height, 24);
  EXPECT_EQ(info.species, zgb_.model.species().names());
  EXPECT_EQ(bits(info.time), bits(sim->time()));
  EXPECT_EQ(info.steps, sim->counters().steps);
}

TEST_P(CheckpointTest, TruncatedFileIsRejected) {
  auto sim = make();
  sim->advance_to(1.0);
  io::save_checkpoint(path_, *sim);

  const std::string raw = io::read_file(path_);
  for (const std::size_t keep : {raw.size() - 1, raw.size() / 2, std::size_t{10}}) {
    std::ofstream(path_, std::ios::binary).write(raw.data(),
                                                 static_cast<std::streamsize>(keep));
    auto fresh = make();
    EXPECT_THROW((void)io::restore_checkpoint(path_, *fresh), io::CheckpointError)
        << "kept " << keep << " of " << raw.size() << " bytes";
  }
}

TEST_P(CheckpointTest, BitFlipIsCaughtByCrc) {
  auto sim = make();
  sim->advance_to(1.0);
  io::save_checkpoint(path_, *sim);

  std::string raw = io::read_file(path_);
  raw[raw.size() / 2] ^= 0x40;  // one flipped bit, deep in the payload
  std::ofstream(path_, std::ios::binary).write(raw.data(),
                                               static_cast<std::streamsize>(raw.size()));
  auto fresh = make();
  try {
    (void)io::restore_checkpoint(path_, *fresh);
    FAIL() << "corrupt checkpoint accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
}

TEST_P(CheckpointTest, WrongLatticeSizeIsRejected) {
  auto sim = make(24);
  io::save_checkpoint(path_, *sim);
  auto smaller = make(16);
  EXPECT_THROW((void)io::restore_checkpoint(path_, *smaller), io::CheckpointError);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CheckpointTest,
    ::testing::Values(Algorithm::kRsm, Algorithm::kVssm, Algorithm::kFrm,
                      Algorithm::kNdca, Algorithm::kPndca, Algorithm::kLPndca,
                      Algorithm::kTPndca, Algorithm::kParallelPndca),
    [](const auto& param_info) {
      switch (param_info.param) {
        case Algorithm::kRsm: return "RSM";
        case Algorithm::kVssm: return "VSSM";
        case Algorithm::kFrm: return "FRM";
        case Algorithm::kNdca: return "NDCA";
        case Algorithm::kPndca: return "PNDCA";
        case Algorithm::kLPndca: return "LPNDCA";
        case Algorithm::kTPndca: return "TPNDCA";
        case Algorithm::kParallelPndca: return "Parallel";
      }
      return "unknown";
    });

class CheckpointFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  models::ZgbModel zgb_ = models::make_zgb();
  std::string path_ = ::testing::TempDir() + "casurf_checkpoint_file_test." +
                      std::to_string(::getpid()) + ".ck";

  std::unique_ptr<Simulator> make(Algorithm alg, unsigned threads = 2) const {
    Configuration cfg(Lattice(16, 16), zgb_.model.species().size(), zgb_.vacant);
    SimulationOptions opt;
    opt.algorithm = alg;
    opt.seed = 9;
    opt.threads = threads;
    return make_simulator(zgb_.model, std::move(cfg), opt);
  }
};

TEST_F(CheckpointFileTest, Crc32MatchesTheReferenceVector) {
  // The standard check value of CRC-32/ISO-HDLC over "123456789".
  const char* s = "123456789";
  EXPECT_EQ(io::crc32(std::span(reinterpret_cast<const std::uint8_t*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(io::crc32({}), 0u);
}

// The file is the 24-byte header (magic, version, CRC-32 of the payload,
// payload size) followed by the payload it checks: the meta, state and
// user sections.
TEST_F(CheckpointFileTest, FileIsTheHeaderThenThePayload) {
  auto sim = make(Algorithm::kFrm);
  sim->advance_to(1.0);
  io::save_checkpoint(path_, *sim, "user-payload");

  StateWriter payload;
  payload.section("meta");
  payload.str("FRM");
  payload.u32(16);
  payload.u32(16);
  payload.u64(zgb_.model.species().names().size());
  for (const std::string& n : zgb_.model.species().names()) payload.str(n);
  payload.u64(zgb_.model.num_reactions());
  for (const ReactionType& rt : zgb_.model.reactions()) payload.f64(rt.rate());
  payload.f64(sim->time());
  payload.u64(sim->counters().steps);
  payload.section("state");
  sim->save_state(payload);
  payload.section("user");
  payload.str("user-payload");

  StateWriter want;
  want.bytes("CASURFCK", 8);
  want.u32(io::kCheckpointVersion);
  want.u32(io::crc32(payload.buffer()));
  want.u64(payload.size());
  want.bytes(payload.buffer().data(), payload.size());

  const std::string raw = io::read_file(path_);
  EXPECT_EQ(raw, std::string(want.buffer().begin(), want.buffer().end()));
}

// Version 3 changed FRM's section; a version-2 file is refused by number
// before anything in it is read.
TEST_F(CheckpointFileTest, VersionTwoIsRefused) {
  auto sim = make(Algorithm::kFrm);
  io::save_checkpoint(path_, *sim);
  std::string raw = io::read_file(path_);
  raw[8] = 2;  // the u32 version after the 8-byte magic, little-endian
  std::ofstream(path_, std::ios::binary).write(raw.data(),
                                               static_cast<std::streamsize>(raw.size()));
  for (const bool peek : {true, false}) {
    try {
      if (peek) (void)io::peek_checkpoint(path_);
      else (void)io::restore_checkpoint(path_, *make(Algorithm::kFrm));
      FAIL() << "a version-2 file was accepted";
    } catch (const io::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CheckpointFileTest, WrongAlgorithmIsRejectedByName) {
  auto vssm = make(Algorithm::kVssm);
  vssm->advance_to(1.0);
  io::save_checkpoint(path_, *vssm);

  auto frm = make(Algorithm::kFrm);
  try {
    (void)io::restore_checkpoint(path_, *frm);
    FAIL() << "cross-algorithm restore accepted";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("VSSM"), std::string::npos) << e.what();
  }
}

TEST_F(CheckpointFileTest, NotACheckpointFileIsRejected) {
  std::ofstream(path_) << "casurf-snapshot 1\nlattice 4 4\n";
  auto sim = make(Algorithm::kRsm);
  EXPECT_THROW((void)io::restore_checkpoint(path_, *sim), io::CheckpointError);
  EXPECT_THROW((void)io::peek_checkpoint(path_), io::CheckpointError);
}

TEST_F(CheckpointFileTest, MissingFileIsACheckpointError) {
  auto sim = make(Algorithm::kRsm);
  EXPECT_THROW((void)io::restore_checkpoint("/nonexistent/x.ck", *sim),
               io::CheckpointError);
}

TEST_F(CheckpointFileTest, LargeUserSectionRoundTrips) {
  // Larger than the StateReader string sanity cap: the user blob must not
  // be subject to it.
  std::string blob(3u << 20, 'x');
  blob[42] = '\0';  // embedded NUL survives
  auto sim = make(Algorithm::kRsm);
  io::save_checkpoint(path_, *sim, blob);
  auto fresh = make(Algorithm::kRsm);
  EXPECT_EQ(io::restore_checkpoint(path_, *fresh), blob);
}

TEST_F(CheckpointFileTest, SaveLeavesNoTemporaryBehind) {
  auto sim = make(Algorithm::kRsm);
  io::save_checkpoint(path_, *sim);
  io::save_checkpoint(path_, *sim);  // overwrite goes through the same rename
  EXPECT_EQ(std::ifstream(path_ + ".tmp." + std::to_string(getpid())).good(), false);
  EXPECT_TRUE(std::ifstream(path_).good());
}

TEST_F(CheckpointFileTest, ParallelEngineResumesAtAnyThreadCount) {
  // The thread count is not part of the checkpoint: PNDCA writes one name
  // at every count, and a run resumes at any count, under either spelling.
  auto uninterrupted = make(Algorithm::kParallelPndca, 2);
  uninterrupted->advance_to(4.0);

  const auto resumes = [&](Algorithm writer_alg, unsigned writer_threads,
                           Algorithm reader_alg, unsigned reader_threads) {
    SCOPED_TRACE(std::to_string(writer_threads) + " -> " +
                 std::to_string(reader_threads) + " threads");
    auto writer = make(writer_alg, writer_threads);
    writer->advance_to(2.0);
    io::save_checkpoint(path_, *writer);
    auto resumed = make(reader_alg, reader_threads);
    (void)io::restore_checkpoint(path_, *resumed);
    resumed->advance_to(4.0);
    EXPECT_EQ(resumed->configuration(), uninterrupted->configuration());
    EXPECT_EQ(resumed->counters().executed, uninterrupted->counters().executed);
  };
  for (const unsigned threads : {1u, 3u, 5u}) {
    resumes(Algorithm::kParallelPndca, 2, Algorithm::kParallelPndca, threads);
  }
  // A serial checkpoint resumes threaded, and a threaded one serially.
  for (const unsigned threads : {3u, 7u}) {
    resumes(Algorithm::kPndca, 1, Algorithm::kParallelPndca, threads);
  }
  resumes(Algorithm::kParallelPndca, 3, Algorithm::kPndca, 1);
}

// Restored bookkeeping must agree with the restored lattice. A model whose
// two reaction types were swapped passes every header guard (same species,
// type count and total rate), yet the VSSM sets and FRM queue it restores
// describe the other type at every site.
ReactionModel ads_des_model(bool swapped) {
  const ReactionType ads("ads", 1.0, {exact({0, 0}, 0, 1)});
  const ReactionType des("des", 1.0, {exact({0, 0}, 1, 0)});
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(swapped ? des : ads);
  m.add(swapped ? ads : des);
  return m;
}

class RestoreConsistencyTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  std::unique_ptr<Simulator> make(const ReactionModel& model) const {
    SimulationOptions opt;
    opt.algorithm = GetParam();
    opt.seed = 7;
    return make_simulator(model, Configuration(Lattice(8, 8), 2, 0), opt);
  }

  /// A simulator of `model_` after `events` events.
  std::unique_ptr<Simulator> run(int events) const {
    auto sim = make(model_);
    for (int i = 0; i < events; ++i) sim->mc_step();
    return sim;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  const ReactionModel model_ = ads_des_model(false);
  const ReactionModel swapped_ = ads_des_model(true);
  std::string path_ = ::testing::TempDir() + "casurf_restore_consistency_test." +
                      std::to_string(::getpid()) + ".ck";
};

TEST_P(RestoreConsistencyTest, SwappedReactionTypesAreRejected) {
  io::save_checkpoint(path_, *run(20));
  auto reader = make(swapped_);
  try {
    (void)io::restore_checkpoint(path_, *reader);
    FAIL() << "restore into a model with swapped reaction types was accepted";
  } catch (const io::CheckpointError& e) {
    // Type 0 is now "des": whichever species site 0 holds, the restored
    // bookkeeping claims the opposite there.
    const std::string what = e.what();
    const char* first = GetParam() == Algorithm::kVssm ? "reaction 0 at site 0"
                                                       : "pair (type 0, site 0)";
    EXPECT_NE(what.find(first), std::string::npos) << what;
    EXPECT_NE(what.find("contradicts the restored lattice"), std::string::npos) << what;
  }
}

TEST_P(RestoreConsistencyTest, SameModelRestoreResumesByteIdentically) {
  const auto uninterrupted = run(40);
  io::save_checkpoint(path_, *run(20));
  auto resumed = make(model_);
  (void)io::restore_checkpoint(path_, *resumed);
  for (int i = 0; i < 20; ++i) resumed->mc_step();
  EXPECT_EQ(resumed->configuration(), uninterrupted->configuration());
  EXPECT_EQ(bits(resumed->time()), bits(uninterrupted->time()));
  EXPECT_EQ(resumed->counters().executed_per_type,
            uninterrupted->counters().executed_per_type);
}

// A stored site that does not fit a SiteIndex is rejected by name, never
// truncated to a site in range: 2^32 + 5 must not restore as site 5.
// VSSM's state ends with its last event's site; FRM's ends with the last
// queued event's site and type.
TEST_P(RestoreConsistencyTest, SiteBeyondThirtyTwoBitsIsRejected) {
  StateWriter w;
  run(20)->save_state(w);
  std::vector<std::uint8_t> bytes = w.buffer();
  const bool vssm = GetParam() == Algorithm::kVssm;
  const std::size_t at = bytes.size() - (vssm ? 8 : 16);
  const std::uint64_t site = (std::uint64_t{1} << 32) + 5;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(site >> (8 * i));
  }
  auto reader = make(model_);
  StateReader r(bytes);
  try {
    reader->restore_state(r);
    FAIL() << "a stored site of 2^32 + 5 was accepted";
  } catch (const StateFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(vssm ? "vssm last event site" : "frm queued event site"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("4294967301"), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Dmc, RestoreConsistencyTest,
                         ::testing::Values(Algorithm::kVssm, Algorithm::kFrm),
                         [](const auto& row) {
                           return row.param == Algorithm::kVssm ? "VSSM" : "FRM";
                         });

// FRM's state ends with its heap array, 24 bytes an event (time, site,
// type); these rows rewrite queued events in a saved state and require the
// restore to refuse it by name.
class FrmQueueRestoreTest : public ::testing::Test {
 protected:
  FrmQueueRestoreTest() {
    for (int i = 0; i < 20; ++i) saved_.mc_step();
    StateWriter w;
    saved_.save_state(w);
    bytes_ = w.take();
  }

  /// The byte offset of heap slot k's event.
  [[nodiscard]] std::size_t event_at(std::size_t k) const {
    return bytes_.size() - 24 * (saved_.queue().size() - k);
  }

  void expect_refused(const std::string& needle) const {
    FrmSimulator reader(model_, Configuration(Lattice(8, 8), 2, 0), 7);
    StateReader r(bytes_);
    try {
      reader.restore_state(r);
      FAIL() << "the rewritten queue was accepted";
    } catch (const StateFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }

  const ReactionModel model_ = ads_des_model(false);
  FrmSimulator saved_{model_, Configuration(Lattice(8, 8), 2, 0), 7};
  std::vector<std::uint8_t> bytes_;
};

TEST_F(FrmQueueRestoreTest, PairQueuedTwiceIsRejected) {
  ASSERT_GE(saved_.queue().size(), 2u);
  // Slot 1 keeps its time and takes slot 0's site and type.
  std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(event_at(0) + 8), 16,
              bytes_.begin() + static_cast<std::ptrdiff_t>(event_at(1) + 8));
  const FrmSimulator::Event& head = saved_.queue()[0];
  expect_refused("frm queue holds pair (type " + std::to_string(head.type) + ", site " +
                 std::to_string(head.site) + ") twice, at heap slots 0 and 1");
}

TEST_F(FrmQueueRestoreTest, QueueOutOfHeapOrderIsRejected) {
  ASSERT_GE(saved_.queue().size(), 2u);
  ASSERT_LT(saved_.queue()[0].when, saved_.queue()[1].when);
  // Swap the times of the root and its first child: the child now fires
  // first.
  std::swap_ranges(bytes_.begin() + static_cast<std::ptrdiff_t>(event_at(0)),
                   bytes_.begin() + static_cast<std::ptrdiff_t>(event_at(0) + 8),
                   bytes_.begin() + static_cast<std::ptrdiff_t>(event_at(1)));
  expect_refused("frm queue is not a valid heap");
}

}  // namespace
}  // namespace casurf
