#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "models/diffusion.hpp"
#include "obs/phase.hpp"
#include "obs/run_report.hpp"

namespace casurf::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Timer, TracksTotalCountAndMax) {
  Timer t;
  t.add_ns(10);
  t.add_ns(30);
  t.add_ns(20);
  EXPECT_EQ(t.total_ns(), 60u);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.max_ns(), 30u);
  EXPECT_DOUBLE_EQ(t.mean_ns(), 20.0);
}

TEST(Timer, MeanOfEmptyTimerIsZero) {
  const Timer t;
  EXPECT_DOUBLE_EQ(t.mean_ns(), 0.0);
}

TEST(ScopedPhaseTest, NullTimerIsANoOp) {
  // The metrics-off fast path: must not crash, must not record anywhere.
  Phase phase("x/phase");
  phase.attach({});
  EXPECT_FALSE(phase.on());
  const ScopedPhase span(phase, 0.0, 0);
}

TEST(ScopedPhaseTest, RecordsOneSpan) {
  // One clock pair feeds both the timer and the span.
  MetricsRegistry reg;
  Tracer tracer;
  Phase phase("x/phase");
  phase.attach({&reg, &tracer});
  { const ScopedPhase span(phase, 1.5, 7); }
  const Timer& t = reg.timer("x/phase");
  EXPECT_EQ(t.count(), 1u);
  const auto events = tracer.ring(0).events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "x/phase");
  EXPECT_EQ(events[0].dur_ns, t.total_ns());
  EXPECT_DOUBLE_EQ(events[0].sim_time, 1.5);
  EXPECT_EQ(events[0].step, 7u);
}

TEST(ScopedPhaseTest, WorkerPhaseTimesUnderItsWorkerOnItsRing) {
  MetricsRegistry reg;
  Tracer tracer;
  Phase phase("threads/busy", 3);
  phase.attach({&reg, &tracer});
  phase.record(100, 250, 0.0, 1);
  EXPECT_EQ(reg.timer("threads/busy/worker2").total_ns(), 150u);
  ASSERT_EQ(tracer.ring(3).size(), 1u);
  EXPECT_STREQ(tracer.ring(3).events()[0].name, "threads/busy");
  EXPECT_EQ(tracer.ring(0).size(), 0u);
}

TEST(HistogramTest, BucketsByBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(HistogramTest, BucketLimitsAreInclusiveUpperBounds) {
  EXPECT_EQ(Histogram::bucket_limit(0), 0u);
  EXPECT_EQ(Histogram::bucket_limit(1), 1u);
  EXPECT_EQ(Histogram::bucket_limit(2), 3u);
  EXPECT_EQ(Histogram::bucket_limit(10), 1023u);
  EXPECT_EQ(Histogram::bucket_limit(64), ~std::uint64_t{0});
}

TEST(HistogramTest, RecordsSumCountAndBuckets) {
  Histogram h;
  h.record(0);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 2u);  // 5 has bit width 3
  EXPECT_DOUBLE_EQ(h.mean(), 10.0 / 3.0);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x/count");
  Counter& b = reg.counter("x/count");
  EXPECT_EQ(&a, &b);
  Timer& ta = reg.timer("x/time");
  Timer& tb = reg.timer("x/time");
  EXPECT_EQ(&ta, &tb);
  Histogram& ha = reg.histogram("x/hist");
  Histogram& hb = reg.histogram("x/hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(MetricsRegistryTest, ReferencesStayStableAcrossRegistrations) {
  MetricsRegistry reg;
  Counter& first = reg.counter("a");
  first.add(7);
  // Registering many more probes must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) reg.counter("probe" + std::to_string(i));
  first.add(1);
  EXPECT_EQ(reg.counter("a").value(), 8u);
}

TEST(MetricsRegistryTest, SnapshotsAreSortedByName) {
  MetricsRegistry reg;
  reg.counter("zebra").add(1);
  reg.counter("alpha").add(2);
  reg.counter("middle").add(3);
  const auto snap = reg.counters();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "middle");
  EXPECT_EQ(snap[2].name, "zebra");
  EXPECT_EQ(snap[0].value, 2u);
}

TEST(MetricsRegistryTest, SnapshotCopiesHistogramBuckets) {
  MetricsRegistry reg;
  reg.histogram("h").record(6);
  const auto snap = reg.histograms();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 1u);
  EXPECT_EQ(snap[0].sum, 6u);
  EXPECT_EQ(snap[0].buckets[Histogram::bucket_of(6)], 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUseIsSafe) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared").add();
        reg.timer("t" + std::to_string(i % 8)).add_ns(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(), 800u);
  EXPECT_EQ(reg.timers().size(), 8u);
}

TEST(RunReport, EmitsSchemaAndSections) {
  MetricsRegistry reg;
  reg.counter("demo/count").add(3);
  reg.timer("demo/time").add_ns(1000);
  reg.gauge("demo/level").set(2.5);
  RunInfo info;
  info.algorithm = "RSM";
  info.model = "zgb";
  info.width = 10;
  info.height = 10;
  info.seed = 42;
  const std::string json = run_report_json(info, nullptr, &reg);
  EXPECT_NE(json.find("\"schema\":\"casurf-run-report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"RSM\""), std::string::npos);
  EXPECT_NE(json.find("\"demo/count\""), std::string::npos);
  EXPECT_NE(json.find("\"demo/time\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"demo/level\":2.5}"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for hand-rolled JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(RunReport, ThreadBalanceDerivedFromWorkerBusyTimers) {
  MetricsRegistry reg;
  reg.timer("threads/busy/worker0").add_ns(3000);
  reg.timer("threads/busy/worker1").add_ns(1000);
  const std::string json = run_report_json(RunInfo{}, nullptr, &reg);
  EXPECT_NE(json.find("\"thread_balance\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
  // imbalance = max / mean = 3000 / 2000 = 1.5
  EXPECT_NE(json.find("1.5"), std::string::npos);
}

TEST(RunReport, PerReactionCountersComeFromTheSimulator) {
  const models::DiffusionModel diff = models::make_diffusion(1.0);
  class OneStep final : public Simulator {
   public:
    OneStep(const ReactionModel& m, Configuration c) : Simulator(m, std::move(c)) {}
    void mc_step() override {}
    [[nodiscard]] std::string name() const override { return "stub"; }
  };
  OneStep sim(diff.model, Configuration(Lattice(4, 4), 2, diff.vacant));
  const std::string json = run_report_json(RunInfo{}, &sim, nullptr);
  // One entry per reaction of the model, labelled by the reaction name.
  EXPECT_NE(json.find("\"per_reaction\""), std::string::npos);
  EXPECT_NE(json.find(diff.model.reaction(0).name()), std::string::npos);
}

}  // namespace
}  // namespace casurf::obs
