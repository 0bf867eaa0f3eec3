#include "obs/run_report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "core/simulator.hpp"
#include "io/atomic_file.hpp"
#include "obs/drift.hpp"
#include "obs/json.hpp"
#include "obs/spatial.hpp"

namespace casurf::obs {

namespace {

// The emitter (and, crucially, its escaper — reaction/species names are
// user-supplied and may contain anything) is shared with the trace writer
// and the drift profile: obs/json.hpp.
using Json = json::Writer;

/// The process's peak resident set so far (getrusage's ru_maxrss, which
/// Linux gives in KiB), in bytes; 0 if it cannot be read.
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

void emit_run(Json& j, const RunInfo& info) {
  j.key("run");
  j.begin_object();
  j.key("algorithm");
  j.string(info.algorithm);
  j.key("model");
  j.string(info.model);
  j.key("width");
  j.i64(info.width);
  j.key("height");
  j.i64(info.height);
  j.key("seed");
  j.u64(info.seed);
  j.key("t_end");
  j.number(info.t_end);
  j.key("dt");
  j.number(info.dt);
  j.key("threads");
  j.u64(info.threads);
  j.key("wall_seconds");
  j.number(info.wall_seconds);
  j.key("peak_rss_bytes");
  j.u64(peak_rss_bytes());
  j.key("trace_id");
  j.string(info.trace_id);
  j.key("trace_drops");
  j.u64(info.trace_drops);
  j.end_object();
}

void emit_counters(Json& j, const Simulator* sim) {
  j.key("counters");
  j.begin_object();
  if (sim != nullptr) {
    const SimCounters& c = sim->counters();
    j.key("time");
    j.number(sim->time());
    j.key("trials");
    j.u64(c.trials);
    j.key("executed");
    j.u64(c.executed);
    j.key("steps");
    j.u64(c.steps);
    j.key("acceptance");
    j.number(c.acceptance());
    j.key("per_reaction");
    j.begin_array();
    for (ReactionIndex i = 0; i < sim->model().num_reactions(); ++i) {
      j.begin_object();
      j.key("name");
      j.string(sim->model().reaction(i).name());
      j.key("rate");
      j.number(sim->model().reaction(i).rate());
      j.key("executed");
      j.u64(c.executed_per_type[i]);
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
}

void emit_registry(Json& j, const MetricsRegistry* reg) {
  j.key("metrics");
  j.begin_object();
  j.key("counters");
  j.begin_object();
  if (reg != nullptr) {
    for (const auto& c : reg->counters()) {
      j.key(c.name.c_str());
      j.u64(c.value);
    }
  }
  j.end_object();
  j.key("timers");
  j.begin_object();
  if (reg != nullptr) {
    for (const auto& t : reg->timers()) {
      j.key(t.name.c_str());
      j.begin_object();
      j.key("count");
      j.u64(t.count);
      j.key("total_ns");
      j.u64(t.total_ns);
      j.key("mean_ns");
      j.number(t.count == 0 ? 0.0
                            : static_cast<double>(t.total_ns) /
                                  static_cast<double>(t.count));
      j.key("max_ns");
      j.u64(t.max_ns);
      j.end_object();
    }
  }
  j.end_object();
  j.key("histograms");
  j.begin_object();
  if (reg != nullptr) {
    for (const auto& h : reg->histograms()) {
      j.key(h.name.c_str());
      j.begin_object();
      j.key("count");
      j.u64(h.count);
      j.key("sum");
      j.u64(h.sum);
      j.key("buckets");
      j.begin_array();
      // Sparse emission: [upper_bound, count] pairs for nonempty buckets.
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (h.buckets[b] == 0) continue;
        j.begin_array();
        j.u64(Histogram::bucket_limit(b));
        j.u64(h.buckets[b]);
        j.end_array();
      }
      j.end_array();
      j.end_object();
    }
  }
  j.end_object();
  j.key("gauges");
  j.begin_object();
  if (reg != nullptr) {
    for (const auto& g : reg->gauges()) {
      j.key(g.name.c_str());
      j.number(g.value);
    }
  }
  j.end_object();
  j.end_object();
}

/// Thread balance, derived from the per-worker busy timers PNDCA
/// registers as "threads/busy/worker<k>". Imbalance is max/mean of
/// the busy totals (1.0 = perfectly balanced); null when fewer than one
/// worker reported.
void emit_threads(Json& j, const MetricsRegistry* reg) {
  j.key("thread_balance");
  std::vector<std::uint64_t> busy;
  if (reg != nullptr) {
    for (const auto& t : reg->timers()) {
      if (t.name.rfind("threads/busy/worker", 0) == 0) busy.push_back(t.total_ns);
    }
  }
  if (busy.empty()) {
    j.raw("null");
    return;
  }
  std::uint64_t max = 0, total = 0;
  for (const std::uint64_t b : busy) {
    max = std::max(max, b);
    total += b;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(busy.size());
  j.begin_object();
  j.key("workers");
  j.u64(busy.size());
  j.key("busy_ns");
  j.begin_array();
  for (const std::uint64_t b : busy) j.u64(b);
  j.end_array();
  j.key("imbalance");
  j.number(mean > 0 ? static_cast<double>(max) / mean : 1.0);
  j.end_object();
}

/// Drift-monitor verdict: null when no monitor was attached. Alarms carry
/// enough to act on without the reference file at hand.
void emit_drift(Json& j, const DriftMonitor* drift) {
  j.key("drift");
  if (drift == nullptr) {
    j.raw("null");
    return;
  }
  j.begin_object();
  j.key("reference_algorithm");
  j.string(drift->reference().algorithm);
  j.key("window");
  j.number(drift->reference().window);
  j.key("z_threshold");
  j.number(drift->config().z_threshold);
  j.key("coverage_abs_tol");
  j.number(drift->config().coverage_abs_tol);
  j.key("rate_rel_tol");
  j.number(drift->config().rate_rel_tol);
  j.key("windows_checked");
  j.u64(drift->windows_checked());
  j.key("windows_unmatched");
  j.u64(drift->windows_unmatched());
  j.key("max_z");
  j.number(drift->max_z());
  j.key("alarms");
  j.begin_array();
  for (const DriftAlarm& a : drift->alarms()) {
    j.begin_object();
    j.key("window");
    j.u64(a.window);
    j.key("t0");
    j.number(a.t0);
    j.key("t1");
    j.number(a.t1);
    j.key("what");
    j.string(a.what);
    j.key("observed");
    j.number(a.observed);
    j.key("expected");
    j.number(a.expected);
    j.key("z");
    j.number(a.z);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

/// Spatial activity summary: null when no activity map was attached (or the
/// algorithm has no partition to aggregate on).
void emit_spatial(Json& j, const SpatialSummary* spatial) {
  j.key("spatial");
  if (spatial == nullptr) {
    j.raw("null");
    return;
  }
  append_summary_json(j, *spatial);
}

/// Supervised-recovery history: null for an undisturbed, unsupervised run,
/// so existing report consumers never see the section unless something
/// actually went wrong (or a supervisor was watching).
void emit_recovery(Json& j, const RecoveryLog* recovery) {
  j.key("recovery");
  if (recovery == nullptr || recovery->empty()) {
    j.raw("null");
    return;
  }
  j.begin_object();
  j.key("supervised");
  j.raw(recovery->supervised ? "true" : "false");
  j.key("retries_allowed");
  j.u64(recovery->retries_allowed);
  j.key("restarts");
  j.u64(recovery->records.size());
  j.key("checkpoint_write_failures");
  j.u64(recovery->checkpoint_write_failures);
  j.key("checkpoint_rotate_failures");
  j.u64(recovery->checkpoint_rotate_failures);
  j.key("records");
  j.begin_array();
  for (const RecoveryRecord& r : recovery->records) {
    j.begin_object();
    j.key("cause");
    j.string(r.cause);
    j.key("detail");
    j.i64(r.detail);
    j.key("attempt");
    j.u64(r.attempt);
    j.key("resume_time");
    j.number(r.resume_time);
    j.key("restore_source");
    j.string(r.restore_source);
    j.key("wall_seconds");
    j.number(r.wall_seconds);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace

std::string run_report_json(const RunInfo& info, const Simulator* sim,
                            const MetricsRegistry* registry,
                            const DriftMonitor* drift,
                            const SpatialSummary* spatial,
                            const RecoveryLog* recovery) {
  Json j;
  j.begin_object();
  j.key("schema");
  j.string("casurf-run-report/1");
  emit_run(j, info);
  emit_counters(j, sim);
  emit_registry(j, registry);
  emit_threads(j, registry);
  emit_drift(j, drift);
  emit_spatial(j, spatial);
  emit_recovery(j, recovery);
  j.end_object();
  std::string out = std::move(j).str();
  out += '\n';
  return out;
}

void write_run_report(const std::string& path, const RunInfo& info,
                      const Simulator* sim, const MetricsRegistry* registry,
                      const DriftMonitor* drift, const SpatialSummary* spatial,
                      const RecoveryLog* recovery) {
  io::atomic_write_file(path,
                        run_report_json(info, sim, registry, drift, spatial, recovery));
}

}  // namespace casurf::obs
