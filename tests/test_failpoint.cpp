// The fault-injection framework (docs/ROBUSTNESS.md): spec grammar, the
// hit@N / prob@P triggers and their deterministic replay, the disarmed
// null-probe contract, and the wired sites — atomic writes, checkpoint
// content damage and thread-pool worker failures.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "io/atomic_file.hpp"
#include "io/checkpoint.hpp"
#include "models/zgb.hpp"
#include "parallel/thread_pool.hpp"
#include "util/failpoint.hpp"

namespace casurf {
namespace {

/// Every test leaves the process-global registry disarmed: a leaked armed
/// failpoint would inject faults into unrelated tests in the same binary.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::reset(); }

  static std::string temp_path(const char* stem) {
    return ::testing::TempDir() + "casurf_failpoint_test." +
           std::to_string(::getpid()) + "." + stem;
  }
};

// --- Spec grammar ---------------------------------------------------------

TEST_F(FailpointTest, ValidatesWellFormedSpecs) {
  EXPECT_EQ(fail::validate(""), "");
  EXPECT_EQ(fail::validate("io/checkpoint/corrupt=hit@2"), "");
  EXPECT_EQ(fail::validate("a=hit@1,b=prob@0.25,c=prob@0"), "");
  EXPECT_EQ(fail::validate("x=prob@1"), "");
}

TEST_F(FailpointTest, RejectsMalformedSpecs) {
  EXPECT_NE(fail::validate("noequals"), "");
  EXPECT_NE(fail::validate("=hit@1"), "");
  EXPECT_NE(fail::validate("a=hit@0"), "");     // 1-based: 0 never fires
  EXPECT_NE(fail::validate("a=hit@-1"), "");
  EXPECT_NE(fail::validate("a=hit@2x"), "");
  EXPECT_NE(fail::validate("a=prob@1.5"), "");
  EXPECT_NE(fail::validate("a=prob@-0.1"), "");
  EXPECT_NE(fail::validate("a=wrong@3"), "");
  EXPECT_NE(fail::validate("a=hit@1,,b=hit@2"), "");  // stray comma
  EXPECT_NE(fail::validate("a=hit@1,"), "");
}

// --- Triggers -------------------------------------------------------------

TEST_F(FailpointTest, DisarmedSiteNeverFiresAndCountsNothing) {
  constexpr fail::Failpoint fp{"test/disarmed"};
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.fire());
  EXPECT_EQ(fail::evaluations("test/disarmed"), 0u);
}

TEST_F(FailpointTest, HitFiresExactlyOnTheNthEvaluation) {
  ASSERT_EQ(fail::configure("test/hit=hit@3"), "");
  constexpr fail::Failpoint fp{"test/hit"};
  EXPECT_FALSE(fp.fire());
  EXPECT_FALSE(fp.fire());
  EXPECT_TRUE(fp.fire());
  EXPECT_FALSE(fp.fire());  // once, not "from the Nth on"
  EXPECT_FALSE(fp.fire());
  EXPECT_EQ(fail::evaluations("test/hit"), 5u);
  EXPECT_EQ(fail::fires("test/hit"), 1u);
}

TEST_F(FailpointTest, ArmedNamesFollowTheSpec) {
  ASSERT_EQ(fail::configure("b=hit@1,a=prob@0.5"), "");
  const std::vector<std::string> names = fail::armed_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "b");
  EXPECT_EQ(names[1], "a");
  ASSERT_EQ(fail::configure(""), "");  // empty spec disarms
  EXPECT_TRUE(fail::armed_names().empty());
}

TEST_F(FailpointTest, ProbReplaysExactlyForAFixedSeed) {
  const auto pattern = [](std::uint64_t seed) {
    fail::reset();
    fail::set_seed(seed);
    EXPECT_EQ(fail::configure("test/prob=prob@0.3"), "");
    constexpr fail::Failpoint fp{"test/prob"};
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(fp.fire());
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);
  EXPECT_EQ(a, b) << "same (seed, spec) must replay the same firing pattern";
  const std::vector<bool> c = pattern(43);
  EXPECT_NE(a, c) << "a different seed should draw a different pattern";
  // Sanity on the rate: ~0.3 * 200 = 60 expected fires, generous bounds.
  const auto fires = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 30);
  EXPECT_LT(fires, 100);
}

TEST_F(FailpointTest, ProbEdgeCasesNeverAndAlways) {
  ASSERT_EQ(fail::configure("never=prob@0,always=prob@1"), "");
  constexpr fail::Failpoint never{"never"};
  constexpr fail::Failpoint always{"always"};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.fire());
    EXPECT_TRUE(always.fire());
  }
  EXPECT_EQ(fail::fires("never"), 0u);
  EXPECT_EQ(fail::fires("always"), 50u);
}

// --- Wired sites ----------------------------------------------------------

TEST_F(FailpointTest, AtomicWriteShortWriteLeavesTargetUntouched) {
  const std::string path = temp_path("short_write");
  io::atomic_write_file(path, "old contents");
  ASSERT_EQ(fail::configure("io/atomic_write/short_write=hit@1"), "");
  EXPECT_THROW(io::atomic_write_file(path, "new contents"), std::runtime_error);
  // The failed write must neither damage the target nor leak its temp file.
  EXPECT_EQ(io::read_file(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
  std::filesystem::remove(path);
}

TEST_F(FailpointTest, AtomicWriteFsyncAndRenameFailuresNameTheSyscall) {
  const std::string path = temp_path("fsync");
  ASSERT_EQ(fail::configure("io/atomic_write/fsync=hit@1"), "");
  try {
    io::atomic_write_file(path, "x");
    FAIL() << "expected the injected fsync failure to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fsync"), std::string::npos) << e.what();
  }
  ASSERT_EQ(fail::configure("io/atomic_write/rename=hit@1"), "");
  try {
    io::atomic_write_file(path, "x");
    FAIL() << "expected the injected rename failure to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rename"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(FailpointTest, CheckpointCorruptionIsCaughtAtRestore) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  SimulationOptions opt;
  opt.algorithm = Algorithm::kRsm;
  opt.seed = 9;
  const Configuration init(Lattice(16, 16), 3, zgb.vacant);
  const auto make = [&] { return make_simulator(zgb.model, init, opt); };

  for (const char* spec :
       {"io/checkpoint/corrupt=hit@1", "io/checkpoint/truncate=hit@1"}) {
    SCOPED_TRACE(spec);
    const std::string path = temp_path("ck");
    std::unique_ptr<Simulator> sim = make();
    sim->advance_to(1.0);
    ASSERT_EQ(fail::configure(spec), "");
    io::save_checkpoint(path, *sim);  // the write itself succeeds...
    fail::reset();
    std::unique_ptr<Simulator> fresh = make();
    // ...and only the restore discovers the file is unusable.
    EXPECT_THROW(io::restore_checkpoint(path, *fresh), io::CheckpointError);
    std::filesystem::remove(path);
  }
}

TEST_F(FailpointTest, ThreadPoolWorkerThrowSurfacesAndPoolStaysUsable) {
  ThreadPool pool(4);
  ASSERT_EQ(fail::configure("thread_pool/worker_throw=hit@1"), "");
  EXPECT_THROW(
      pool.parallel_for(64, [](unsigned, std::size_t, std::size_t) {}),
      std::runtime_error);
  fail::reset();
  // The barrier completed and the exception slot drained: the same pool
  // must run the next job normally.
  std::atomic<std::size_t> visited{0};
  pool.parallel_for(64, [&](unsigned, std::size_t begin, std::size_t end) {
    visited += end - begin;
  });
  EXPECT_EQ(visited.load(), 64u);
}

}  // namespace
}  // namespace casurf
