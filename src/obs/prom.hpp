#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace casurf::obs::prom {

/// Prometheus text exposition (format 0.0.4) over a MetricsRegistry, plus
/// the strict parser the tests and `casurf_report --serve` use to consume
/// it. The registry stays the single source of truth: labels are encoded
/// into registry keys by series() as `base{l1="v1",l2="v2"}`, and render()
/// groups keys back into metric families.
///
/// Kind mapping:
///   Counter   → counter                 (value as an integer)
///   Gauge     → gauge                   (value %.17g)
///   Timer     → summary                 (base_sum = total_ns, base_count)
///   Histogram → histogram               (cumulative le buckets from
///               Histogram::bucket_limit — power-of-two grid — truncated
///               after the last occupied bucket, then +Inf, _sum, _count)

/// Content-Type of a 0.0.4 exposition body.
inline constexpr const char* kContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// Append the label-value-escaped form of `s` (backslash, quote, newline).
void append_escaped_label(std::string& out, std::string_view s);

/// Build a registry key carrying labels: series("casurf_http_requests_total",
/// {{"route", "/jobs"}, {"status", "200"}}) →
/// `casurf_http_requests_total{route="/jobs",status="200"}`. Label ORDER is
/// part of the key: call sites must use one canonical order per family or
/// they will mint distinct series.
[[nodiscard]] std::string series(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>> labels);

/// Render every probe of `registry` as exposition text. Deterministic:
/// families sorted by name, series within a family in registry (key) order.
/// Base names are sanitised to the metric-name alphabet (`trial/attempts`
/// → `trial_attempts`); if two probe kinds collide on one sanitised base,
/// the first kind rendered (counter < gauge < summary < histogram) keeps
/// the name and the rest are dropped rather than emitting an invalid
/// exposition.
[[nodiscard]] std::string render(const MetricsRegistry& registry);

/// One parsed sample (`casurf_jobs{state="running"} 3` →
/// name="casurf_jobs", labels=[{state,running}], value=3).
struct Sample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
};

/// One metric family: the `# TYPE` line plus every sample under it.
struct Family {
  std::string name;
  std::string type;  ///< counter | gauge | histogram | summary | untyped
  std::vector<Sample> samples;
};

/// Strict 0.0.4 parser; throws std::runtime_error (with a line number) on
/// any violation. Stricter than Prometheus itself — this is the round-trip
/// gate for render() output, so it also rejects what we never emit:
/// samples before their `# TYPE`, interleaved or reopened families,
/// timestamps, trailing garbage, a missing final newline — and checks
/// histogram invariants (ascending le, non-decreasing cumulative counts,
/// mandatory +Inf bucket equal to the family's _count).
[[nodiscard]] std::vector<Family> parse(std::string_view text);

/// Estimate the q-quantile (0 ≤ q ≤ 1) of a parsed histogram family by
/// linear interpolation inside its cumulative buckets (label sets are
/// merged first). Returns 0 for an empty histogram; the top bucket's lower
/// edge when the quantile lands in the +Inf bucket. Throws if `family` is
/// not a histogram.
[[nodiscard]] double quantile(const Family& family, double q);

}  // namespace casurf::obs::prom
