// Observation must never perturb a trajectory: attaching any set of sinks
// (metrics registry, tracer, spatial map) may not move any simulator's
// trajectory by a single bit. Each case is one row of a table over
// (algorithm x sink set): the algorithm runs twice from the same seed, once
// bare and once with the row's sinks attached, and the raw configuration
// bytes, simulated time and every counter must agree exactly at the end.
// Threaded PNDCA's per-worker probes and rings are TSan surface (the
// "parallel" label).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "models/zgb.hpp"
#include "obs/metrics.hpp"
#include "obs/spatial.hpp"
#include "obs/trace.hpp"
#include "partition/coloring.hpp"

namespace casurf {
namespace {

/// Which sinks a row attaches.
struct SinkSet {
  bool metrics = false;
  bool tracer = false;
  bool spatial = false;
};

/// Owns one of each sink and lends the ones a row selects.
struct OwnedSinks {
  explicit OwnedSinks(SiteIndex sites) : map(sites) {}

  [[nodiscard]] obs::Sinks select(SinkSet set) {
    return {set.metrics ? &registry : nullptr, set.tracer ? &tracer : nullptr,
            set.spatial ? &map : nullptr};
  }

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::SpatialMap map;
};

/// `algorithm` as make_simulator builds it, except that PNDCA draws its
/// chunks rate-weighted, which exercises the rate cache's refreshes.
/// kPndca keeps the serial sweep; kParallelPndca runs it on 2 threads.
std::unique_ptr<Simulator> make_rate_weighted(Algorithm algorithm,
                                              const ReactionModel& model,
                                              Configuration config, std::uint64_t seed) {
  if (!has_threaded_path(algorithm)) {
    SimulationOptions opt;
    opt.algorithm = algorithm;
    opt.seed = seed;
    return make_simulator(model, std::move(config), opt);
  }
  Partition p = make_partition(config.lattice(), model);
  return std::make_unique<PndcaSimulator>(
      model, std::move(config), std::vector<Partition>{std::move(p)}, seed,
      ChunkPolicy::kRateWeighted, TimeMode::kStochastic,
      algorithm == Algorithm::kParallelPndca ? 2 : 1);
}

/// Bare vs observed run of `algorithm`: bit-identical trajectories, and
/// every attached sink recorded something.
void expect_bit_identical(Algorithm algorithm, SinkSet set) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(20, 20);

  const auto run = [&](const obs::Sinks& sinks) {
    auto sim =
        make_rate_weighted(algorithm, zgb.model, Configuration(lat, 3, zgb.vacant), 1234);
    sim->attach(sinks);
    for (int i = 0; i < 5; ++i) sim->mc_step();
    sim->advance_to(sim->time() + 0.01);
    return sim;
  };

  OwnedSinks sinks(lat.size());
  const auto bare = run({});
  const auto observed = run(sinks.select(set));

  EXPECT_TRUE(std::ranges::equal(bare->configuration().raw(),
                                 observed->configuration().raw()));
  // Bitwise: time is accumulated through the identical RNG draws.
  EXPECT_EQ(bare->time(), observed->time());
  EXPECT_EQ(bare->counters().trials, observed->counters().trials);
  EXPECT_EQ(bare->counters().executed, observed->counters().executed);
  EXPECT_EQ(bare->counters().steps, observed->counters().steps);
  EXPECT_EQ(bare->counters().executed_per_type,
            observed->counters().executed_per_type);

  if (set.metrics) {
    // Every algorithm times at least its step phase.
    bool saw_step_timer = false;
    for (const auto& t : sinks.registry.timers()) {
      if (t.count > 0 && t.name.find("/step") != std::string::npos) {
        saw_step_timer = true;
      }
    }
    EXPECT_TRUE(saw_step_timer) << "no */step timer recorded any span";
  }
  if (set.tracer) {
    EXPECT_GT(sinks.tracer.ring(0).recorded(), 0u);
  }
  if (set.spatial) {
    // The map records exactly the run's executions.
    EXPECT_EQ(sinks.map.total_fires(), observed->counters().executed);
    EXPECT_GT(sinks.map.total_attempts(), 0u);
  }
}

/// attach(set), step, attach({}), step: the second step must leave every
/// sink exactly as the first step left it.
void expect_detach_records_nothing(Algorithm algorithm, SinkSet set) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(10, 10);
  SimulationOptions opt;
  opt.algorithm = algorithm;
  opt.seed = 99;
  opt.threads = algorithm == Algorithm::kParallelPndca ? 2 : 1;
  auto sim = make_simulator(zgb.model, Configuration(lat, 3, zgb.vacant), opt);

  OwnedSinks sinks(lat.size());
  sim->attach(sinks.select(set));
  sim->mc_step();
  sim->attach({});
  EXPECT_EQ(sim->sinks().metrics, nullptr);
  EXPECT_EQ(sim->sinks().tracer, nullptr);
  EXPECT_EQ(sim->sinks().spatial, nullptr);

  const auto timers_before = sinks.registry.timers();
  const std::uint64_t recorded = sinks.tracer.total_recorded();
  const std::uint64_t attempts = sinks.map.total_attempts();
  sim->mc_step();  // must not touch the detached sinks
  const auto timers_after = sinks.registry.timers();
  ASSERT_EQ(timers_before.size(), timers_after.size());
  for (std::size_t i = 0; i < timers_before.size(); ++i) {
    EXPECT_EQ(timers_before[i].count, timers_after[i].count) << timers_before[i].name;
  }
  EXPECT_EQ(sinks.tracer.total_recorded(), recorded);
  EXPECT_EQ(sinks.map.total_attempts(), attempts);
}

class SinkIdentity : public ::testing::TestWithParam<Algorithm> {};
// Rows that predate the table keep their suite names, so their test ids
// stay stable across the merge.
using MetricsIdentity = SinkIdentity;
using TraceIdentity = SinkIdentity;

TEST_P(MetricsIdentity, TrajectoryBitIdenticalWithAndWithoutMetrics) {
  expect_bit_identical(GetParam(), {.metrics = true});
}

TEST_P(TraceIdentity, TrajectoryBitIdenticalWithAndWithoutTracer) {
  expect_bit_identical(GetParam(), {.tracer = true});
}

TEST_P(TraceIdentity, TrajectoryBitIdenticalWithAndWithoutSpatialMap) {
  expect_bit_identical(GetParam(), {.spatial = true});
}

TEST_P(SinkIdentity, TrajectoryBitIdenticalWithAllSinks) {
  expect_bit_identical(GetParam(), {.metrics = true, .tracer = true, .spatial = true});
}

TEST_P(MetricsIdentity, DetachRestoresUninstrumentedOperation) {
  expect_detach_records_nothing(GetParam(), {.metrics = true, .spatial = true});
}

TEST_P(TraceIdentity, DetachRestoresUntracedOperation) {
  expect_detach_records_nothing(GetParam(), {.tracer = true});
}

/// Runs `algorithm` on `threads` threads (PNDCA only) through advance_to,
/// the path casurf_run drives, into `registry` and into rings of `tracer`
/// too large to wrap.
void traced_run(Algorithm algorithm, unsigned threads, obs::MetricsRegistry& registry,
                obs::Tracer& tracer) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(20, 20);
  SimulationOptions opt;
  opt.algorithm = algorithm;
  opt.seed = 77;
  opt.threads = threads;
  auto sim = make_simulator(zgb.model, Configuration(lat, 3, zgb.vacant), opt);
  sim->attach({&registry, &tracer});
  sim->advance_to(1.0);
  ASSERT_EQ(tracer.total_dropped(), 0u) << "a ring wrapped";
}

// Every metrics timer is a phase that records spans of its name
// (docs/OBSERVABILITY.md, "Span sites"): every timer of the simulation
// thread must count exactly the spans of its name in ring 0. Threaded
// PNDCA's worker timers (threads/busy/<w>, threads/wait/<w>) record into
// the workers' own rings under the bare phase name;
// EveryTimerEqualsItsSpans covers those.
TEST_P(TraceIdentity, EveryTimerCountsItsSpans) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  traced_run(GetParam(), GetParam() == Algorithm::kParallelPndca ? 2 : 1, registry,
             tracer);

  std::map<std::string, std::uint64_t> spans;
  for (const obs::TraceEvent& e : tracer.ring(0).events()) {
    if (e.kind == obs::TraceEvent::Kind::kSpan) ++spans[e.name];
  }
  std::uint64_t timed = 0;
  for (const auto& t : registry.timers()) {
    if (t.name.starts_with("threads/busy/") || t.name.starts_with("threads/wait/")) {
      continue;
    }
    EXPECT_EQ(spans[t.name], t.count) << t.name;
    timed += t.count;
  }
  EXPECT_GT(timed, 0u);
}

// A timer and its spans are one phase's records, read from one clock pair:
// each timer's count and total equal the number and summed durations of
// its spans, on ring 0 for the simulation thread's phases and on ring k + 1
// for worker k's (timer <name>/worker<k>, spans <name>). PNDCA's worker
// rings are checked at one thread (kPndca) and at three (kParallelPndca).
TEST_P(TraceIdentity, EveryTimerEqualsItsSpans) {
  const unsigned threads = GetParam() == Algorithm::kParallelPndca ? 3 : 1;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  traced_run(GetParam(), threads, registry, tracer);

  std::uint64_t timed = 0;
  unsigned worker_timers = 0;
  for (const auto& t : registry.timers()) {
    std::string name = t.name;
    unsigned ring = 0;
    if (const std::size_t at = name.find("/worker"); at != std::string::npos) {
      ring = static_cast<unsigned>(std::stoul(name.substr(at + 7))) + 1;
      name.resize(at);
      ++worker_timers;
    }
    std::uint64_t count = 0, total_ns = 0;
    for (const obs::TraceEvent& e : tracer.ring(ring).events()) {
      if (e.kind != obs::TraceEvent::Kind::kSpan || name != e.name) continue;
      ++count;
      total_ns += e.dur_ns;
    }
    EXPECT_EQ(t.count, count) << t.name;
    EXPECT_EQ(t.total_ns, total_ns) << t.name;
    timed += t.count;
  }
  EXPECT_GT(timed, 0u);
  // threads/busy/worker<k> and threads/wait/worker<k> for every thread.
  EXPECT_EQ(worker_timers, has_threaded_path(GetParam()) ? 2 * threads : 0);
}

const auto kAllAlgorithms = ::testing::Values(
    Algorithm::kRsm, Algorithm::kVssm, Algorithm::kFrm, Algorithm::kNdca,
    Algorithm::kPndca, Algorithm::kLPndca, Algorithm::kTPndca,
    Algorithm::kParallelPndca);

std::string algorithm_test_name(const ::testing::TestParamInfo<Algorithm>& info) {
  std::string name = algorithm_name(info.param);
  // Test names must be alphanumeric ("L-PNDCA", "PNDCA(threads)" are not).
  std::erase_if(name, [](char c) {
    return (std::isalnum(static_cast<unsigned char>(c)) == 0);
  });
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MetricsIdentity, kAllAlgorithms,
                         algorithm_test_name);
INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TraceIdentity, kAllAlgorithms,
                         algorithm_test_name);
INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SinkIdentity, kAllAlgorithms,
                         algorithm_test_name);

/// Four steps of PNDCA on 7 threads, bare or observed: final raw
/// configuration and executed count.
std::pair<std::vector<unsigned char>, std::uint64_t> run_seven_workers(
    const obs::Sinks& sinks) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(28, 28);
  PndcaSimulator engine(zgb.model, Configuration(lat, 3, zgb.vacant),
                        {make_partition(lat, zgb.model)}, 5, ChunkPolicy::kRandomOrder,
                        TimeMode::kStochastic, 7);
  engine.attach(sinks);
  for (int i = 0; i < 4; ++i) engine.mc_step();
  const auto raw = engine.configuration().raw();
  return {std::vector<unsigned char>(raw.begin(), raw.end()),
          engine.counters().executed};
}

// The per-worker rings must carry both halves of the test phase's
// accounting, which the caller records after the phase: per worker and
// test phase, one busy span and two wait spans (the idle head before the
// slice's test and the idle tail after it).
TEST(TraceIdentityThreaded, SevenWorkersBitIdenticalAndRingsPopulated) {
  obs::Tracer tracer;
  const auto bare = run_seven_workers({});
  const auto traced = run_seven_workers({nullptr, &tracer});
  EXPECT_EQ(bare, traced);

  for (unsigned tid = 1; tid <= 7; ++tid) {
    std::uint64_t busy = 0, wait = 0;
    for (const obs::TraceEvent& e : tracer.ring(tid).events()) {
      if (std::string_view(e.name) == "threads/busy") ++busy;
      if (std::string_view(e.name) == "threads/wait") ++wait;
    }
    EXPECT_GT(busy, 0u) << "worker " << tid - 1 << " recorded no busy span";
    EXPECT_EQ(wait, 2 * busy) << "worker " << tid - 1;
  }
}

// The per-site counters are written from worker threads (disjoint sites per
// chunk), and the trajectory must still replay the bare one.
TEST(TraceIdentityThreaded, SevenWorkersBitIdenticalWithSpatialMap) {
  obs::SpatialMap map(28 * 28);
  const auto bare = run_seven_workers({});
  const auto mapped = run_seven_workers({nullptr, nullptr, &map});
  EXPECT_EQ(bare, mapped);
  EXPECT_EQ(map.total_fires(), mapped.second);
  EXPECT_GE(map.total_attempts(), map.total_fires());
}

}  // namespace
}  // namespace casurf
