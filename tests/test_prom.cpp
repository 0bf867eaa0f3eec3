// Prometheus exposition (obs/prom.hpp): a golden-file render of a
// hand-built registry, render→parse round trips, the strict parser's
// negative space, histogram invariant checking, and quantile estimation
// over merged label sets. The golden test is the format contract for
// external scrapers — update it deliberately, never to paper over a
// renderer change.

#include "obs/prom.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace casurf::obs::prom {
namespace {

TEST(PromSeries, EncodesLabelsIntoTheRegistryKey) {
  EXPECT_EQ(series("casurf_jobs", {}), "casurf_jobs");
  EXPECT_EQ(series("casurf_jobs", {{"state", "running"}}),
            R"(casurf_jobs{state="running"})");
  EXPECT_EQ(series("m", {{"a", "1"}, {"b", "2"}}), R"(m{a="1",b="2"})");
  // Hostile label values are escaped, not trusted.
  EXPECT_EQ(series("m", {{"p", "a\\b\"c\nd"}}), "m{p=\"a\\\\b\\\"c\\nd\"}");
}

TEST(PromRender, GoldenExposition) {
  MetricsRegistry reg;
  reg.counter("casurf_job_submissions_total").add(3);
  reg.counter(series("casurf_http_requests_total", {{"method", "GET"},
                                                    {"route", "/stats"},
                                                    {"status", "200"}}))
      .add(7);
  reg.gauge("casurf_queue_depth").set(2);
  reg.gauge(series("casurf_jobs", {{"state", "running"}})).set(1);
  reg.timer("trial/batch").add_ns(1500);  // slash taxonomy → sanitised name
  Histogram& h = reg.histogram("casurf_job_duration_ns");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(1000);

  EXPECT_EQ(render(reg),
            "# TYPE casurf_http_requests_total counter\n"
            "casurf_http_requests_total{method=\"GET\",route=\"/stats\","
            "status=\"200\"} 7\n"
            "# TYPE casurf_job_duration_ns histogram\n"
            "casurf_job_duration_ns_bucket{le=\"0\"} 1\n"
            "casurf_job_duration_ns_bucket{le=\"1\"} 2\n"
            "casurf_job_duration_ns_bucket{le=\"3\"} 2\n"
            "casurf_job_duration_ns_bucket{le=\"7\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"15\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"31\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"63\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"127\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"255\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"511\"} 3\n"
            "casurf_job_duration_ns_bucket{le=\"1023\"} 4\n"
            "casurf_job_duration_ns_bucket{le=\"+Inf\"} 4\n"
            "casurf_job_duration_ns_sum 1006\n"
            "casurf_job_duration_ns_count 4\n"
            "# TYPE casurf_job_submissions_total counter\n"
            "casurf_job_submissions_total 3\n"
            "# TYPE casurf_jobs gauge\n"
            "casurf_jobs{state=\"running\"} 1\n"
            "# TYPE casurf_queue_depth gauge\n"
            "casurf_queue_depth 2\n"
            "# TYPE trial_batch summary\n"
            "trial_batch_sum 1500\n"
            "trial_batch_count 1\n");
}

TEST(PromRender, ParsesItsOwnOutput) {
  MetricsRegistry reg;
  reg.counter(series("c_total", {{"k", "weird \"v\"\\\n"}})).add(11);
  reg.gauge("g").set(2.25);
  reg.gauge("g_nan").set(std::nan(""));
  reg.timer("t").add_ns(900);
  Histogram& h = reg.histogram("lat_ns");
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v * v);

  const auto families = parse(render(reg));
  ASSERT_EQ(families.size(), 5u);
  EXPECT_EQ(families[0].name, "c_total");
  EXPECT_EQ(families[0].type, "counter");
  ASSERT_EQ(families[0].samples.size(), 1u);
  ASSERT_EQ(families[0].samples[0].labels.size(), 1u);
  // The hostile label value survives the escape→unescape round trip.
  EXPECT_EQ(families[0].samples[0].labels[0].second, "weird \"v\"\\\n");
  EXPECT_EQ(families[0].samples[0].value, 11);
  EXPECT_EQ(families[1].name, "g");
  EXPECT_DOUBLE_EQ(families[1].samples[0].value, 2.25);
  EXPECT_EQ(families[2].name, "g_nan");
  EXPECT_TRUE(std::isnan(families[2].samples[0].value));
  EXPECT_EQ(families[3].name, "lat_ns");
  EXPECT_EQ(families[3].type, "histogram");
  EXPECT_EQ(families[4].type, "summary");
}

TEST(PromRender, KindCollisionKeepsTheFirstKindOnly) {
  MetricsRegistry reg;
  reg.counter("clash").add(1);
  reg.gauge("clash").set(9);  // dropped: counter claimed the sanitised base
  const auto families = parse(render(reg));
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].type, "counter");
  ASSERT_EQ(families[0].samples.size(), 1u);
  EXPECT_EQ(families[0].samples[0].value, 1);
}

TEST(PromParse, AcceptsHelpCommentsAndEmptyInput) {
  EXPECT_TRUE(parse("").empty());
  const auto families = parse(
      "# HELP x documentation text here\n"
      "# TYPE x counter\n"
      "x 1\n");
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].samples[0].value, 1);
}

TEST(PromParse, RejectsEverythingRenderNeverEmits) {
  // Sample before any # TYPE line.
  EXPECT_THROW(parse("x 1\n"), std::runtime_error);
  // Missing final newline (a truncated scrape).
  EXPECT_THROW(parse("# TYPE x counter\nx 1"), std::runtime_error);
  // Empty interior line.
  EXPECT_THROW(parse("# TYPE x counter\n\nx 1\n"), std::runtime_error);
  // Reopened family.
  EXPECT_THROW(
      parse("# TYPE x counter\nx 1\n# TYPE y counter\ny 1\n"
            "# TYPE x counter\nx 2\n"),
      std::runtime_error);
  // Sample outside the open family.
  EXPECT_THROW(parse("# TYPE a counter\nb 1\n"), std::runtime_error);
  // Timestamps (a second token after the value).
  EXPECT_THROW(parse("# TYPE x counter\nx 1 1700000000\n"), std::runtime_error);
  // Garbage value.
  EXPECT_THROW(parse("# TYPE x counter\nx one\n"), std::runtime_error);
  // Unknown metric type and unrecognised comment.
  EXPECT_THROW(parse("# TYPE x wat\nx 1\n"), std::runtime_error);
  EXPECT_THROW(parse("# a stray comment\n"), std::runtime_error);
  // Label syntax: trailing comma, bad escape, unterminated block.
  EXPECT_THROW(parse("# TYPE x counter\nx{a=\"1\",} 2\n"), std::runtime_error);
  EXPECT_THROW(parse("# TYPE x counter\nx{a=\"\\q\"} 2\n"), std::runtime_error);
  EXPECT_THROW(parse("# TYPE x counter\nx{a=\"1\" 2\n"), std::runtime_error);
}

TEST(PromParse, ChecksHistogramInvariantsAtFamilyClose) {
  // A well-formed histogram parses.
  EXPECT_NO_THROW(parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 2\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 9\n"
      "h_count 5\n"));
  // Decreasing cumulative counts.
  EXPECT_THROW(parse("# TYPE h histogram\n"
                     "h_bucket{le=\"1\"} 5\n"
                     "h_bucket{le=\"2\"} 3\n"
                     "h_bucket{le=\"+Inf\"} 5\n"
                     "h_count 5\n"),
               std::runtime_error);
  // Non-ascending le.
  EXPECT_THROW(parse("# TYPE h histogram\n"
                     "h_bucket{le=\"2\"} 1\n"
                     "h_bucket{le=\"1\"} 2\n"
                     "h_bucket{le=\"+Inf\"} 2\n"
                     "h_count 2\n"),
               std::runtime_error);
  // Missing +Inf bucket.
  EXPECT_THROW(parse("# TYPE h histogram\n"
                     "h_bucket{le=\"1\"} 2\n"
                     "h_count 2\n"),
               std::runtime_error);
  // _count disagrees with +Inf.
  EXPECT_THROW(parse("# TYPE h histogram\n"
                     "h_bucket{le=\"+Inf\"} 4\n"
                     "h_count 5\n"),
               std::runtime_error);
  // _bucket without an le label.
  EXPECT_THROW(parse("# TYPE h histogram\n"
                     "h_bucket{x=\"1\"} 4\n"
                     "h_count 4\n"),
               std::runtime_error);
}

TEST(PromQuantile, InterpolatesInsideCumulativeBuckets) {
  const auto families = parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"10\"} 5\n"
      "h_bucket{le=\"20\"} 10\n"
      "h_bucket{le=\"+Inf\"} 10\n"
      "h_sum 100\n"
      "h_count 10\n");
  ASSERT_EQ(families.size(), 1u);
  const Family& h = families[0];
  EXPECT_DOUBLE_EQ(quantile(h, 0.50), 10.0);   // rank 5 → top of bucket 1
  EXPECT_DOUBLE_EQ(quantile(h, 0.75), 15.0);   // midway through bucket 2
  EXPECT_DOUBLE_EQ(quantile(h, 1.00), 20.0);
  EXPECT_DOUBLE_EQ(quantile(h, 0.0), 0.0);
}

TEST(PromQuantile, PlusInfBucketReturnsTheTopFiniteEdge) {
  const auto families = parse(
      "# TYPE h histogram\n"
      "h_bucket{le=\"10\"} 5\n"
      "h_bucket{le=\"+Inf\"} 10\n"
      "h_count 10\n");
  EXPECT_DOUBLE_EQ(quantile(families[0], 0.9), 10.0);
}

TEST(PromQuantile, MergesDifferentLabelSetGrids) {
  // Two label sets with different (renderer-truncated) grids; merged mass:
  // 4 in (0,10], 4 in (10,20].
  const auto families = parse(
      "# TYPE h histogram\n"
      "h_bucket{tenant=\"a\",le=\"10\"} 4\n"
      "h_bucket{tenant=\"a\",le=\"+Inf\"} 4\n"
      "h_count{tenant=\"a\"} 4\n"
      "h_bucket{tenant=\"b\",le=\"10\"} 0\n"
      "h_bucket{tenant=\"b\",le=\"20\"} 4\n"
      "h_bucket{tenant=\"b\",le=\"+Inf\"} 4\n"
      "h_count{tenant=\"b\"} 4\n");
  const Family& h = families[0];
  EXPECT_DOUBLE_EQ(quantile(h, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(quantile(h, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(quantile(h, 0.0), 0.0);
}

TEST(PromQuantile, EmptyHistogramAndWrongKind) {
  const auto families = parse(
      "# TYPE g gauge\n"
      "g 1\n");
  EXPECT_THROW((void)quantile(families[0], 0.5), std::runtime_error);
  Family empty{"h", "histogram", {}};
  EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0.0);
}

}  // namespace
}  // namespace casurf::obs::prom
