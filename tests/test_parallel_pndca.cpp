#include "ca/pndca.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "partition/coloring.hpp"

namespace casurf {
namespace {

std::vector<Partition> five_chunks(const Lattice& lat) {
  return {Partition::linear_form(lat, 1, 3, 5)};
}

/// PNDCA whose chunk sweeps are tested on `threads` threads.
PndcaSimulator threaded(const ReactionModel& model, Configuration config,
                        std::vector<Partition> partitions, std::uint64_t seed,
                        unsigned threads,
                        ChunkPolicy policy = ChunkPolicy::kRandomOrder) {
  return PndcaSimulator(model, std::move(config), std::move(partitions), seed, policy,
                        TimeMode::kStochastic, threads);
}

TEST(ParallelPndca, ConflictingPartitionsMatchSerial) {
  // Partitions that fail the block rule run one trial at a time on the
  // caller at any thread count, so threads change nothing.
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  for (const Partition& p :
       {Partition::single_chunk(lat), Partition::linear_form(lat, 1, 1, 2)}) {
    PndcaSimulator seq(zgb.model, Configuration(lat, 3, zgb.vacant), {p}, 1);
    ASSERT_FALSE(seq.blocks(0)) << p.num_chunks() << " chunks";
    for (int step = 0; step < 20; ++step) seq.mc_step();
    for (const unsigned threads : {2u, 7u}) {
      PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant), {p}, 1,
                                    threads);
      for (int step = 0; step < 20; ++step) par.mc_step();
      EXPECT_TRUE(seq.configuration() == par.configuration())
          << p.num_chunks() << " chunks, " << threads << " threads";
      EXPECT_EQ(seq.time(), par.time());
      EXPECT_EQ(seq.counters().executed_per_type, par.counters().executed_per_type);
    }
  }
}

class ThreadCountSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadCountSweep, TrajectoryIdenticalToSequentialPndca) {
  // The library's core determinism guarantee: the threaded sweep replays
  // the one-thread PNDCA trajectory exactly, for any thread count.
  const unsigned threads = GetParam();
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(20, 20);

  PndcaSimulator seq(zgb.model, Configuration(lat, 3, zgb.vacant), five_chunks(lat), 99);
  PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant),
                                five_chunks(lat), 99, threads);

  for (int step = 0; step < 40; ++step) {
    seq.mc_step();
    par.mc_step();
    ASSERT_TRUE(seq.configuration() == par.configuration()) << "step " << step;
    ASSERT_DOUBLE_EQ(seq.time(), par.time()) << "step " << step;
  }
  EXPECT_EQ(seq.counters().executed, par.counters().executed);
  EXPECT_EQ(seq.counters().executed_per_type, par.counters().executed_per_type);
  EXPECT_EQ(seq.counters().trials, par.counters().trials);
  // Species counts kept by the caller's commits must agree too.
  for (Species s = 0; s < 3; ++s) {
    EXPECT_EQ(seq.configuration().count(s), par.configuration().count(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep, ::testing::Values(1u, 2u, 3u, 4u, 7u));

class RateWeightedThreadSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RateWeightedThreadSweep, TrajectoryIdenticalToSequentialPndca) {
  // Under kRateWeighted the schedule depends on the enabled-rate cache, so
  // this additionally pins down the cache maintenance of the commit phase:
  // any divergence in the counts shows up as a diverging chunk schedule.
  const unsigned threads = GetParam();
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(20, 20);

  PndcaSimulator seq(zgb.model, Configuration(lat, 3, zgb.vacant), five_chunks(lat), 57,
                     ChunkPolicy::kRateWeighted);
  PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant),
                                five_chunks(lat), 57, threads,
                                ChunkPolicy::kRateWeighted);

  for (int step = 0; step < 40; ++step) {
    seq.mc_step();
    par.mc_step();
    ASSERT_EQ(seq.last_schedule(), par.last_schedule()) << "step " << step;
    ASSERT_TRUE(seq.configuration() == par.configuration()) << "step " << step;
    ASSERT_DOUBLE_EQ(seq.time(), par.time()) << "step " << step;
  }
  EXPECT_EQ(seq.counters().executed, par.counters().executed);
  EXPECT_EQ(seq.counters().executed_per_type, par.counters().executed_per_type);
  EXPECT_EQ(seq.counters().trials, par.counters().trials);
}

TEST_P(RateWeightedThreadSweep, MoreThreadsThanChunkSites) {
  // 5x5 with the five-chunk linear form: every chunk holds 5 sites, fewer
  // than the 7-thread pool — the test phase leaves workers idle and the
  // commits must still reproduce the serial cache exactly.
  const unsigned threads = GetParam();
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(5, 5);

  PndcaSimulator seq(zgb.model, Configuration(lat, 3, zgb.vacant), five_chunks(lat), 61,
                     ChunkPolicy::kRateWeighted);
  PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant),
                                five_chunks(lat), 61, threads,
                                ChunkPolicy::kRateWeighted);

  for (int step = 0; step < 30; ++step) {
    seq.mc_step();
    par.mc_step();
    ASSERT_EQ(seq.last_schedule(), par.last_schedule()) << "step " << step;
    ASSERT_TRUE(seq.configuration() == par.configuration()) << "step " << step;
    ASSERT_DOUBLE_EQ(seq.time(), par.time()) << "step " << step;
  }
  EXPECT_EQ(seq.counters().executed, par.counters().executed);
}

INSTANTIATE_TEST_SUITE_P(Threads, RateWeightedThreadSweep,
                         ::testing::Values(1u, 2u, 4u, 7u));

TEST(ParallelPndca, DeterministicAcrossPolicies) {
  auto zgb = models::make_zgb();
  const Lattice lat(15, 15);
  for (const ChunkPolicy policy :
       {ChunkPolicy::kInOrder, ChunkPolicy::kRandomOrder,
        ChunkPolicy::kRandomWithReplacement, ChunkPolicy::kRateWeighted}) {
    PndcaSimulator seq(zgb.model, Configuration(lat, 3, zgb.vacant), five_chunks(lat),
                       7, policy);
    PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant),
                                  five_chunks(lat), 7, 3, policy);
    for (int i = 0; i < 15; ++i) {
      seq.mc_step();
      par.mc_step();
    }
    EXPECT_TRUE(seq.configuration() == par.configuration())
        << "policy " << static_cast<int>(policy);
  }
}

TEST(ParallelPndca, WorksOnPt100Model) {
  auto pt = models::make_pt100();
  const Lattice lat(16, 16);
  const Partition p = make_partition(lat, pt.model);
  PndcaSimulator par = threaded(pt.model, Configuration(lat, 5, pt.hex_vac), {p}, 5, 2);
  PndcaSimulator seq(pt.model, Configuration(lat, 5, pt.hex_vac), {p}, 5);
  for (int i = 0; i < 10; ++i) {
    seq.mc_step();
    par.mc_step();
  }
  EXPECT_TRUE(seq.configuration() == par.configuration());
}

TEST(ParallelPndca, CountsConsistentAfterLongRun) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 20);
  PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant),
                                five_chunks(lat), 3, 4);
  for (int i = 0; i < 100; ++i) par.mc_step();
  // Maintained counts equal a raw recount.
  std::vector<std::uint64_t> recount(3, 0);
  for (SiteIndex s = 0; s < par.configuration().size(); ++s) {
    ++recount[par.configuration().get(s)];
  }
  for (Species s = 0; s < 3; ++s) {
    EXPECT_EQ(par.configuration().count(s), recount[s]);
  }
}

TEST(ParallelPndca, FreshModelIsSafeToSampleFromManyThreads) {
  // The pool workers share the simulator's model without locks. Four threads
  // released together sample a model nothing has sampled from before; any
  // state the model still builds lazily on first use is a data race, which
  // the ThreadSanitizer build reports whatever the timing.
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<ReactionIndex> sampled(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      sampled[t] = zgb.model.sample_type(0.3, 0.7);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ReactionIndex r : sampled) EXPECT_EQ(r, sampled[0]);
}

TEST(ParallelPndca, FreshModelFastPathMatchesSerial) {
  // Every repetition builds fresh models, so the pool workers' first sweep
  // is the first time anything samples from the simulator's model. Workers
  // share the model without locks, so it must be immutable by then; the
  // result must replay serial PNDCA on another fresh model byte for byte.
  const Lattice lat(64, 64);
  for (int rep = 0; rep < 20; ++rep) {
    const auto serial_zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
    const auto threaded_zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
    PndcaSimulator seq(serial_zgb.model, Configuration(lat, 3, serial_zgb.vacant),
                       {make_partition(lat, serial_zgb.model)}, 3);
    PndcaSimulator par = threaded(threaded_zgb.model,
                                  Configuration(lat, 3, threaded_zgb.vacant),
                                  {make_partition(lat, threaded_zgb.model)}, 3, 4);
    for (int step = 0; step < 3; ++step) {
      seq.mc_step();
      par.mc_step();
    }
    ASSERT_TRUE(std::ranges::equal(seq.configuration().raw(), par.configuration().raw()))
        << "repetition " << rep;
    EXPECT_EQ(seq.time(), par.time());
    EXPECT_EQ(seq.counters().trials, par.counters().trials);
    EXPECT_EQ(seq.counters().executed, par.counters().executed);
    EXPECT_EQ(seq.counters().steps, par.counters().steps);
    EXPECT_EQ(seq.counters().executed_per_type, par.counters().executed_per_type);
  }
}

TEST(ParallelPndca, ReportsThreadsAndName) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  PndcaSimulator par = threaded(zgb.model, Configuration(lat, 3, zgb.vacant),
                                five_chunks(lat), 1, 3);
  EXPECT_EQ(par.num_threads(), 3u);
  // One name at every thread count, so checkpoints resume across counts.
  EXPECT_EQ(par.name(), "PNDCA");
}

}  // namespace
}  // namespace casurf
