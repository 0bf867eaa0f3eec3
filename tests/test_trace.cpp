// TraceRing/Tracer units: wrap-around drop accounting, oldest-first export,
// the null-ring fast path, and the Chrome Trace Event JSON (validated with
// the same parser casurf_report uses — including the footer that keeps
// ring-wrap loss visible).

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace casurf::obs {
namespace {

TEST(TraceRing, NullRingScopedPhaseIsANoOp) {
  // The "tracing off" path: must not crash, must not record anywhere.
  MetricsRegistry reg;
  Phase phase("phase");
  phase.attach({.metrics = &reg});
  { const ScopedPhase span(phase, 1.0, 2); }
  EXPECT_EQ(reg.timer("phase").count(), 1u);
}

TEST(TraceRing, RecordsSpansAndInstants) {
  TraceRing ring(0, 8);
  ring.span("a", 100, 50, 0.5, 1);
  ring.instant("b", 0.75, 2);
  EXPECT_EQ(ring.recorded(), 2u);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].start_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 50u);
  EXPECT_DOUBLE_EQ(events[0].sim_time, 0.5);
  EXPECT_EQ(events[0].step, 1u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSpan);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kInstant);
}

TEST(TraceRing, WrapOverwritesOldestAndCountsDrops) {
  TraceRing ring(3, 4);
  static const char* const names[] = {"e0", "e1", "e2", "e3", "e4",
                                      "e5", "e6", "e7", "e8", "e9"};
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.span(names[i], i * 10, 1, 0.0, i);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The survivors are the newest four, oldest first.
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_STREQ(events[i].name, names[6 + i]);
    EXPECT_EQ(events[i].step, 6 + i);
  }
}

TEST(TraceRing, ZeroCapacityIsClampedToOne) {
  TraceRing ring(0, 0);
  ring.span("x", 1, 1, 0, 0);
  ring.span("y", 2, 1, 0, 1);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 1u);
  EXPECT_STREQ(ring.events()[0].name, "y");
}

TEST(Tracer, ChromeJsonCarriesEventsNamesAndFooter) {
  Tracer tracer(4);
  tracer.ring(0).span("main/step", 1000, 2000, 0.5, 3);
  tracer.ring(0).instant("main/mark", 0.6, 4);
  tracer.ring(1).span("worker/busy", 1500, 500, 0.5, 3);
  tracer.set_thread_name(0, "main");
  tracer.set_thread_name(1, "worker0");

  const json::Value doc = json::Value::parse(tracer.chrome_trace_json());
  const json::Value& footer = doc.at("otherData");
  EXPECT_EQ(footer.at("schema").as_string(), "casurf-trace/1");
  EXPECT_EQ(footer.at("recorded_events").as_u64(), 3u);
  EXPECT_EQ(footer.at("dropped_events").as_u64(), 0u);
  EXPECT_EQ(footer.at("ring_capacity").as_u64(), 4u);
  ASSERT_EQ(footer.at("rings").items().size(), 2u);
  EXPECT_EQ(footer.at("rings").items()[0].at("name").as_string(), "main");
  EXPECT_EQ(footer.at("rings").items()[1].at("name").as_string(), "worker0");

  std::size_t complete = 0, instants = 0, metadata = 0;
  bool saw_step = false;
  for (const json::Value& e : doc.at("traceEvents").items()) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "X") {
      ++complete;
      if (e.at("name").as_string() == "main/step") {
        saw_step = true;
        EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 2.0);  // 2000 ns = 2 µs
        EXPECT_DOUBLE_EQ(e.at("args").at("sim_time").as_number(), 0.5);
        EXPECT_EQ(e.at("args").at("step").as_u64(), 3u);
        EXPECT_EQ(e.at("tid").as_u64(), 0u);
      }
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").as_string(), "t");
    } else if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(metadata, 2u);
  EXPECT_TRUE(saw_step);
}

TEST(Tracer, FooterDropCounterSurvivesRingWrap) {
  Tracer tracer(2);
  for (std::uint64_t i = 0; i < 7; ++i) tracer.ring(0).span("s", i, 1, 0, i);
  EXPECT_EQ(tracer.total_recorded(), 7u);
  EXPECT_EQ(tracer.total_dropped(), 5u);
  const json::Value doc = json::Value::parse(tracer.chrome_trace_json());
  EXPECT_EQ(doc.at("otherData").at("recorded_events").as_u64(), 7u);
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_u64(), 5u);
  EXPECT_EQ(doc.at("otherData").at("rings").items()[0].at("dropped").as_u64(), 5u);
}

TEST(Tracer, FooterCarriesIdAndOrigin) {
  // The correlation id and the steady-clock origin are what
  // casurf_report --merge-traces labels and aligns lanes by; they must be
  // the tracer's own, not merely present.
  Tracer tracer;
  tracer.set_trace_id("job-42");
  tracer.ring(0).span("main/step", now_ns(), 10, 0.0, 0);
  const json::Value doc = json::Value::parse(tracer.chrome_trace_json());
  const json::Value& footer = doc.at("otherData");
  EXPECT_EQ(footer.at("schema").as_string(), "casurf-trace/1");
  EXPECT_EQ(footer.at("trace_id").as_string(), "job-42");
  // The parser holds numbers as doubles, so compare at that precision.
  EXPECT_EQ(footer.at("t0_ns").as_number(), static_cast<double>(tracer.t0_ns()));
}

TEST(Tracer, RingReferencesAreStable) {
  Tracer tracer;
  TraceRing& r0 = tracer.ring(0);
  // Creating more rings must not invalidate earlier references (the
  // simulators hold raw pointers across the whole run).
  for (unsigned tid = 1; tid < 32; ++tid) tracer.ring(tid);
  EXPECT_EQ(&r0, &tracer.ring(0));
  EXPECT_EQ(tracer.ring_capacity(), Tracer::kDefaultCapacity);
}

}  // namespace
}  // namespace casurf::obs
