// casurf_report — human/CI consumer for the observability artifacts:
//
//   casurf_report report.json              phase breakdown of one run report
//   casurf_report a.json b.json            A/B delta table (percent change)
//   casurf_report --trace trace.json       summarize a Chrome-trace file
//   casurf_report --merge-traces OUT IN..  stitch per-process traces into one
//
// Accepts both `casurf_run --metrics` reports and the BENCH_*.json files the
// benchmarks drop in bench_out/ (same "casurf-run-report/1" schema). Exits 0
// on success, 1 on unreadable/malformed input, 2 on usage errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"
#include "obs/prom.hpp"
#include "serve/http.hpp"

using casurf::obs::json::Value;

namespace {

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s [--trace|--events] FILE [FILE2]\n"
               "       %s --merge-traces OUT IN [IN...]\n"
               "       %s --serve PORT\n"
               "  FILE           a casurf-run-report/1 JSON (casurf_run --metrics,\n"
               "                 or a BENCH_*.json from bench_out/)\n"
               "  FILE FILE2     print an A/B comparison with percent deltas\n"
               "  --trace FILE   summarize a casurf-trace/1 Chrome-trace JSON\n"
               "  --merge-traces OUT IN [IN...]\n"
               "                 merge casurf-trace/1 files from one machine\n"
               "                 (daemon + workers) into OUT, one pid per input,\n"
               "                 timestamps aligned on the shared steady clock\n"
               "  --events FILE  timeline of a casurf-events/1 journal\n"
               "                 (a job's events.jsonl, or the daemon's)\n"
               "  --serve PORT   live fleet table from a casurf_serve daemon on\n"
               "                 127.0.0.1:PORT (/stats plus /metrics latency\n"
               "                 percentiles when the build exposes them)\n",
               argv0, argv0, argv0);
  std::exit(error ? 2 : 0);
}

struct TimerRow {
  std::uint64_t count = 0;
  double total_ns = 0;
  double mean_ns = 0;
  double max_ns = 0;
};

struct Report {
  std::string path;
  Value doc;
  std::map<std::string, TimerRow> timers;
  std::map<std::string, double> counters;
  double wall_seconds = 0;
  double peak_rss_mb = 0;  // 0 = not reported
  double trials = 0;
  bool has_spatial = false;
  double spatial_imbalance = 0;
  double seam_ratio = 0;
};

Value load_json(const std::string& path) {
  try {
    return Value::parse(casurf::io::read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    std::exit(1);
  }
}

Report load_report(const std::string& path) {
  Report r;
  r.path = path;
  r.doc = load_json(path);
  if (r.doc.string_or("schema", "") != "casurf-run-report/1") {
    std::fprintf(stderr, "error: %s: not a casurf-run-report/1 document\n",
                 path.c_str());
    std::exit(1);
  }
  try {
    if (const Value* m = r.doc.find("metrics")) {
      if (const Value* timers = m->find("timers")) {
        for (const auto& [name, t] : timers->members()) {
          TimerRow row;
          row.count = t.at("count").as_u64();
          row.total_ns = t.at("total_ns").as_number();
          row.mean_ns = t.number_or("mean_ns", 0);
          row.max_ns = t.at("max_ns").as_number();
          r.timers.emplace(name, row);
        }
      }
      if (const Value* counters = m->find("counters")) {
        for (const auto& [name, c] : counters->members()) {
          r.counters.emplace(name, c.as_number());
        }
      }
    }
    if (const Value* run = r.doc.find("run")) {
      r.wall_seconds = run->number_or("wall_seconds", 0);
      r.peak_rss_mb = run->number_or("peak_rss_bytes", 0) / (1024.0 * 1024.0);
    }
    if (const Value* c = r.doc.find("counters")) {
      r.trials = c->number_or("trials", 0);
    }
    if (const Value* sp = r.doc.find("spatial"); sp != nullptr && sp->is_object()) {
      r.has_spatial = true;
      r.spatial_imbalance = sp->number_or("chunk_fire_imbalance", 1.0);
      r.seam_ratio = sp->number_or("seam_interior_fire_ratio", 0.0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    std::exit(1);
  }
  return r;
}

std::string run_summary(const Report& r) {
  const Value* run = r.doc.find("run");
  if (run == nullptr) return "(no run section)";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s on %s, %dx%d, seed %llu, threads %llu",
                run->string_or("algorithm", "?").c_str(),
                run->string_or("model", "?").c_str(),
                static_cast<int>(run->number_or("width", 0)),
                static_cast<int>(run->number_or("height", 0)),
                static_cast<unsigned long long>(run->number_or("seed", 0)),
                static_cast<unsigned long long>(run->number_or("threads", 0)));
  return buf;
}

void print_single(const Report& r) {
  std::printf("report: %s\n", r.path.c_str());
  std::printf("  run: %s\n", run_summary(r).c_str());
  if (const Value* c = r.doc.find("counters"); c != nullptr && c->find("trials")) {
    std::printf("  sim: t = %.6g, %.0f trials, %.0f executed "
                "(acceptance %.2f%%), %.0f steps, wall %.3fs\n",
                c->number_or("time", 0), c->number_or("trials", 0),
                c->number_or("executed", 0), 100 * c->number_or("acceptance", 0),
                c->number_or("steps", 0), r.wall_seconds);
    if (r.wall_seconds > 0 && r.trials > 0) {
      std::printf("  throughput: %.3g trials/s\n", r.trials / r.wall_seconds);
    }
  }
  if (r.peak_rss_mb > 0) {
    std::printf("  peak RSS: %.2f MB (whole process, when the report was written)\n",
                r.peak_rss_mb);
  }

  if (!r.timers.empty()) {
    // Sorted by total time, descending: where did the run go? Each share
    // is of the run's loop wall: timers nest (pndca/sweep inside
    // pndca/step) and per-worker timers overlap, so they do not sum.
    std::vector<std::pair<std::string, TimerRow>> rows(r.timers.begin(),
                                                       r.timers.end());
    std::ranges::sort(rows, [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
    std::printf("  phases:\n");
    std::printf("    %-28s %10s %12s %12s %12s %6s\n", "timer", "count",
                "total_ms", "mean_us", "max_us", "% wall");
    for (const auto& [name, row] : rows) {
      char share[16] = "     -";
      if (r.wall_seconds > 0) {
        std::snprintf(share, sizeof share, "%5.1f%%", 100 * row.total_ns / 1e9 / r.wall_seconds);
      }
      std::printf("    %-28s %10llu %12.3f %12.3f %12.3f %s\n", name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ns / 1e6,
                  row.mean_ns / 1e3, row.max_ns / 1e3, share);
    }
  }
  if (!r.counters.empty()) {
    std::printf("  counters:\n");
    for (const auto& [name, v] : r.counters) {
      std::printf("    %-28s %14.0f\n", name.c_str(), v);
    }
  }

  if (const Value* tb = r.doc.find("thread_balance");
      tb != nullptr && tb->is_object()) {
    std::printf("  thread balance: %llu workers, imbalance %.3f (max/mean busy)\n",
                static_cast<unsigned long long>(tb->number_or("workers", 0)),
                tb->number_or("imbalance", 1.0));
  }

  if (const Value* sp = r.doc.find("spatial"); sp != nullptr && sp->is_object()) {
    const double seam_sites = sp->number_or("seam_sites", 0);
    const double interior_sites = sp->number_or("interior_sites", 0);
    const double seam_fires = sp->number_or("seam_fires", 0);
    const double interior_fires = sp->number_or("interior_fires", 0);
    std::printf("  spatial: %llu chunks, fire imbalance %.3f (max/mean), "
                "seam/interior fire ratio %.3f\n",
                static_cast<unsigned long long>(sp->number_or("chunks", 0)),
                sp->number_or("chunk_fire_imbalance", 1.0),
                sp->number_or("seam_interior_fire_ratio", 0.0));
    std::printf("    seam: %.0f sites, %.0f fires (%.4g/site); interior: %.0f "
                "sites, %.0f fires (%.4g/site)\n",
                seam_sites, seam_fires,
                seam_sites > 0 ? seam_fires / seam_sites : 0.0, interior_sites,
                interior_fires,
                interior_sites > 0 ? interior_fires / interior_sites : 0.0);
  }

  if (const Value* rec = r.doc.find("recovery");
      rec != nullptr && rec->is_object()) {
    const Value& records = rec->at("records");
    std::printf("  recovery: %s, %llu restarts (budget %llu), "
                "%llu checkpoint write failures, %llu rotation failures\n",
                rec->find("supervised") != nullptr &&
                        rec->at("supervised").as_bool()
                    ? "supervised"
                    : "unsupervised",
                static_cast<unsigned long long>(rec->number_or("restarts", 0)),
                static_cast<unsigned long long>(
                    rec->number_or("retries_allowed", 0)),
                static_cast<unsigned long long>(
                    rec->number_or("checkpoint_write_failures", 0)),
                static_cast<unsigned long long>(
                    rec->number_or("checkpoint_rotate_failures", 0)));
    for (const Value& a : records.items()) {
      std::printf("    attempt %llu: %s (%d), resumed at t = %.6g from %s "
                  "(wall %.3fs)\n",
                  static_cast<unsigned long long>(a.number_or("attempt", 0)),
                  a.string_or("cause", "?").c_str(),
                  static_cast<int>(a.number_or("detail", 0)),
                  a.number_or("resume_time", 0),
                  a.string_or("restore_source", "?").c_str(),
                  a.number_or("wall_seconds", 0));
    }
  }

  if (const Value* run = r.doc.find("run")) {
    const double drops = run->number_or("trace_drops", 0);
    if (drops > 0) {
      std::printf("  WARNING: trace ring dropped %.0f events — the trace is "
                  "incomplete; raise the ring capacity\n",
                  drops);
    }
  }

  if (const Value* d = r.doc.find("drift"); d != nullptr && d->is_object()) {
    const Value& alarms = d->at("alarms");
    std::printf("  drift: %llu windows checked vs %s reference, %zu alarms, "
                "max z %.2f\n",
                static_cast<unsigned long long>(d->number_or("windows_checked", 0)),
                d->string_or("reference_algorithm", "?").c_str(),
                alarms.items().size(), d->number_or("max_z", 0));
    for (const Value& a : alarms.items()) {
      std::printf("    window %llu [%.6g, %.6g) %s: observed %.6g expected %.6g "
                  "(z = %.2f)\n",
                  static_cast<unsigned long long>(a.number_or("window", 0)),
                  a.number_or("t0", 0), a.number_or("t1", 0),
                  a.string_or("what", "?").c_str(), a.number_or("observed", 0),
                  a.number_or("expected", 0), a.number_or("z", 0));
    }
  }
}

/// Percent change B vs A; the empty string when A is zero.
std::string pct(double a, double b) {
  if (a == 0) return "";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100 * (b - a) / a);
  return buf;
}

void print_delta(const Report& a, const Report& b) {
  std::printf("A: %s (%s)\n", a.path.c_str(), run_summary(a).c_str());
  std::printf("B: %s (%s)\n", b.path.c_str(), run_summary(b).c_str());

  std::printf("  %-28s %14s %14s %9s\n", "", "A", "B", "delta");
  std::printf("  %-28s %14.3f %14.3f %9s\n", "wall_seconds", a.wall_seconds,
              b.wall_seconds, pct(a.wall_seconds, b.wall_seconds).c_str());
  std::printf("  %-28s %14.2f %14.2f %9s\n", "peak_rss_mb", a.peak_rss_mb,
              b.peak_rss_mb, pct(a.peak_rss_mb, b.peak_rss_mb).c_str());
  const double ta = a.wall_seconds > 0 ? a.trials / a.wall_seconds : 0;
  const double tb = b.wall_seconds > 0 ? b.trials / b.wall_seconds : 0;
  std::printf("  %-28s %14.3g %14.3g %9s\n", "trials_per_second", ta, tb,
              pct(ta, tb).c_str());
  if (a.has_spatial || b.has_spatial) {
    std::printf("  %-28s %14.3f %14.3f %9s\n", "spatial_fire_imbalance",
                a.spatial_imbalance, b.spatial_imbalance,
                pct(a.spatial_imbalance, b.spatial_imbalance).c_str());
    std::printf("  %-28s %14.3f %14.3f %9s\n", "seam_interior_fire_ratio",
                a.seam_ratio, b.seam_ratio, pct(a.seam_ratio, b.seam_ratio).c_str());
  }

  // Phase-by-phase totals over the union of timer names.
  std::map<std::string, std::pair<const TimerRow*, const TimerRow*>> phases;
  for (const auto& [name, row] : a.timers) phases[name].first = &row;
  for (const auto& [name, row] : b.timers) phases[name].second = &row;
  if (!phases.empty()) {
    std::printf("  phases (total_ms):\n");
    std::printf("    %-28s %14s %14s %9s\n", "timer", "A", "B", "delta");
    for (const auto& [name, rows] : phases) {
      const double ma = rows.first != nullptr ? rows.first->total_ns / 1e6 : 0;
      const double mb = rows.second != nullptr ? rows.second->total_ns / 1e6 : 0;
      std::printf("    %-28s %14.3f %14.3f %9s\n", name.c_str(), ma, mb,
                  pct(ma, mb).c_str());
    }
  }

  std::map<std::string, std::pair<double, double>> counters;
  for (const auto& [name, v] : a.counters) counters[name].first = v;
  for (const auto& [name, v] : b.counters) counters[name].second = v;
  if (!counters.empty()) {
    std::printf("  counters:\n");
    std::printf("    %-28s %14s %14s %9s\n", "counter", "A", "B", "delta");
    for (const auto& [name, v] : counters) {
      std::printf("    %-28s %14.0f %14.0f %9s\n", name.c_str(), v.first,
                  v.second, pct(v.first, v.second).c_str());
    }
  }
}

int print_trace(const std::string& path) {
  const Value doc = load_json(path);
  const Value* events = doc.find("traceEvents");
  const Value* other = doc.find("otherData");
  if (events == nullptr || other == nullptr ||
      other->string_or("schema", "") != "casurf-trace/1") {
    std::fprintf(stderr, "error: %s: not a casurf-trace/1 document\n", path.c_str());
    return 1;
  }
  // Events per name: how often did each phase appear in the retained window?
  std::map<std::string, std::pair<std::uint64_t, double>> by_name;  // count, total µs
  std::uint64_t spans = 0, instants = 0;
  for (const Value& e : events->items()) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "X") {
      ++spans;
      auto& slot = by_name[e.string_or("name", "?")];
      ++slot.first;
      slot.second += e.number_or("dur", 0);
    } else if (ph == "i") {
      ++instants;
      ++by_name[e.string_or("name", "?")].first;
    }
  }
  std::printf("trace: %s\n", path.c_str());
  std::printf("  %llu spans, %llu instants retained; %llu recorded, %llu "
              "dropped (ring capacity %llu)\n",
              static_cast<unsigned long long>(spans),
              static_cast<unsigned long long>(instants),
              static_cast<unsigned long long>(other->number_or("recorded_events", 0)),
              static_cast<unsigned long long>(other->number_or("dropped_events", 0)),
              static_cast<unsigned long long>(other->number_or("ring_capacity", 0)));
  if (other->number_or("dropped_events", 0) > 0) {
    std::printf("  WARNING: %.0f events were dropped — the timeline has gaps; "
                "raise the ring capacity\n",
                other->number_or("dropped_events", 0));
  }
  if (const Value* rings = other->find("rings")) {
    for (const Value& ring : rings->items()) {
      std::printf("  tid %llu (%s): %llu recorded, %llu retained, %llu dropped\n",
                  static_cast<unsigned long long>(ring.number_or("tid", 0)),
                  ring.string_or("name", "").c_str(),
                  static_cast<unsigned long long>(ring.number_or("recorded", 0)),
                  static_cast<unsigned long long>(ring.number_or("retained", 0)),
                  static_cast<unsigned long long>(ring.number_or("dropped", 0)));
    }
  }
  std::printf("  events by name:\n");
  for (const auto& [name, slot] : by_name) {
    std::printf("    %-28s %10llu %12.3f ms\n", name.c_str(),
                static_cast<unsigned long long>(slot.first), slot.second / 1e3);
  }
  return 0;
}

/// Re-emit a parsed value verbatim (used by the trace merger for the
/// members it does not rewrite).
void emit_value(casurf::obs::json::Writer& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w.raw("null");
      break;
    case Value::Kind::kBool:
      w.boolean(v.as_bool());
      break;
    case Value::Kind::kNumber:
      w.number(v.as_number());
      break;
    case Value::Kind::kString:
      w.string(v.as_string());
      break;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& e : v.items()) emit_value(w, e);
      w.end_array();
      break;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        emit_value(w, member);
      }
      w.end_object();
      break;
  }
}

/// Stitch per-process casurf-trace/1 files (daemon + supervised workers)
/// into one Chrome trace: input i becomes pid i+1, named after its trace id,
/// with timestamps shifted onto the earliest input's clock. Valid for traces
/// captured on one machine — t0_ns comes from the shared monotonic clock.
int merge_traces(const std::string& out_path,
                 const std::vector<std::string>& inputs) {
  struct Input {
    std::string path;
    Value doc;
    const Value* events = nullptr;
    const Value* other = nullptr;
    std::uint64_t t0_ns = 0;
    std::string label;
  };
  std::vector<Input> ins;
  ins.reserve(inputs.size());
  std::uint64_t t0_min = 0;
  bool have_t0 = false;
  for (const std::string& path : inputs) {
    Input in;
    in.path = path;
    in.doc = load_json(path);
    in.events = in.doc.find("traceEvents");
    in.other = in.doc.find("otherData");
    if (in.events == nullptr || in.other == nullptr ||
        in.other->string_or("schema", "") != "casurf-trace/1") {
      std::fprintf(stderr, "error: %s: not a casurf-trace/1 document\n",
                   path.c_str());
      return 1;
    }
    in.t0_ns = static_cast<std::uint64_t>(in.other->number_or("t0_ns", 0));
    in.label = in.other->string_or("trace_id", "");
    if (in.label.empty()) {
      const std::size_t slash = path.find_last_of('/');
      in.label = slash == std::string::npos ? path : path.substr(slash + 1);
    }
    if (!have_t0 || in.t0_ns < t0_min) t0_min = in.t0_ns, have_t0 = true;
    ins.push_back(std::move(in));
  }

  casurf::obs::json::Writer w;
  std::uint64_t total_events = 0, recorded = 0, dropped = 0, capacity = 0;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const Input& in = ins[i];
    const std::uint64_t pid = i + 1;
    const double shift_us =
        static_cast<double>(in.t0_ns - t0_min) / 1000.0;
    // Process-name metadata so each input gets a labelled lane group.
    w.begin_object();
    w.key("name"), w.string("process_name");
    w.key("ph"), w.string("M");
    w.key("pid"), w.u64(pid);
    w.key("args");
    w.begin_object();
    w.key("name"), w.string(in.label);
    w.end_object();
    w.end_object();
    for (const Value& e : in.events->items()) {
      if (!e.is_object()) continue;
      ++total_events;
      w.begin_object();
      bool wrote_pid = false;
      for (const auto& [key, member] : e.members()) {
        if (key == "pid") {
          w.key("pid"), w.u64(pid);
          wrote_pid = true;
        } else if (key == "ts" && member.is_number()) {
          w.key("ts"), w.number(member.as_number() + shift_us);
        } else {
          w.key(key);
          emit_value(w, member);
        }
      }
      if (!wrote_pid) w.key("pid"), w.u64(pid);
      w.end_object();
    }
    recorded += static_cast<std::uint64_t>(
        in.other->number_or("recorded_events", 0));
    dropped +=
        static_cast<std::uint64_t>(in.other->number_or("dropped_events", 0));
    capacity = std::max(capacity, static_cast<std::uint64_t>(
                                      in.other->number_or("ring_capacity", 0)));
  }
  w.end_array();
  w.key("otherData");
  w.begin_object();
  w.key("schema"), w.string("casurf-trace/1");
  w.key("t0_ns"), w.u64(t0_min);
  w.key("recorded_events"), w.u64(recorded);
  w.key("dropped_events"), w.u64(dropped);
  w.key("ring_capacity"), w.u64(capacity);
  w.key("merged");
  w.begin_array();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    w.begin_object();
    w.key("file"), w.string(ins[i].path);
    w.key("trace_id"), w.string(ins[i].label);
    w.key("pid"), w.u64(i + 1);
    w.key("t0_ns"), w.u64(ins[i].t0_ns);
    w.key("shift_us"),
        w.number(static_cast<double>(ins[i].t0_ns - t0_min) / 1000.0);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();

  try {
    casurf::io::atomic_write_file(out_path, std::move(w).str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", out_path.c_str(), e.what());
    return 1;
  }
  std::printf("merged %zu traces into %s (%llu events", ins.size(),
              out_path.c_str(), static_cast<unsigned long long>(total_events));
  if (dropped > 0) {
    std::printf("; WARNING: %llu dropped at capture",
                static_cast<unsigned long long>(dropped));
  }
  std::printf(")\n");
  for (std::size_t i = 0; i < ins.size(); ++i) {
    std::printf("  pid %zu: %s (%s, +%.3f ms)\n", i + 1, ins[i].path.c_str(),
                ins[i].label.c_str(),
                static_cast<double>(ins[i].t0_ns - t0_min) / 1e6);
  }
  return 0;
}

/// One member of an events.jsonl record rendered as `key=value`, for the
/// free-form details column of the timeline.
void append_detail(std::string& out, const std::string& key, const Value& v) {
  if (!out.empty()) out += ' ';
  out += key;
  out += '=';
  if (v.is_string()) {
    out += v.as_string();
  } else if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v.as_number());
    out += buf;
  } else if (v.is_null()) {
    out += "null";
  } else {
    out += v.is_object() ? "{...}" : v.is_array() ? "[...]" : "?";
  }
}

bool terminal_event(const std::string& e) {
  return e == "finished" || e == "failed" || e == "cancelled" ||
         e == "preempted" || e == "daemon_stopped";
}

int print_events(const std::string& path) {
  std::string text;
  try {
    text = casurf::io::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return 1;
  }

  struct Row {
    double ts = 0;
    std::string event;
    bool has_job = false;
    std::uint64_t job = 0;
    std::string details;
  };
  std::vector<Row> rows;
  // event name per journal stream ("daemon" or "job-<id>") for chain checks
  std::map<std::string, std::vector<std::string>> chains;

  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.empty()) continue;
    Value doc;
    try {
      doc = Value::parse(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(), lineno, e.what());
      return 1;
    }
    if (doc.string_or("schema", "") != "casurf-events/1") {
      std::fprintf(stderr, "error: %s:%zu: not a casurf-events/1 record\n",
                   path.c_str(), lineno);
      return 1;
    }
    Row row;
    row.ts = doc.number_or("ts", 0);
    row.event = doc.string_or("event", "?");
    for (const auto& [key, v] : doc.members()) {
      if (key == "schema" || key == "ts" || key == "event") continue;
      if (key == "job" && v.is_number()) {
        row.has_job = true;
        row.job = v.as_u64();
        continue;
      }
      append_detail(row.details, key, v);
    }
    const std::string stream =
        row.has_job ? "job-" + std::to_string(row.job) : "daemon";
    chains[stream].push_back(row.event);
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::fprintf(stderr, "error: %s: no events\n", path.c_str());
    return 1;
  }

  const double t0 = rows.front().ts;
  std::printf("events: %s (%zu records)\n", path.c_str(), rows.size());
  std::printf("  %10s  %-10s %-12s %s\n", "t(+s)", "job", "event", "details");
  for (const Row& row : rows) {
    const std::string job =
        row.has_job ? std::to_string(row.job) : std::string("-");
    std::printf("  %10.3f  %-10s %-12s %s\n", row.ts - t0, job.c_str(),
                row.event.c_str(), row.details.c_str());
  }

  // Chain sanity: each job's stream should open with submitted (a journal
  // sliced from a job dir) or restarted (a daemon-restart requeue record)
  // and close on a terminal event; anything else is in flight / truncated.
  for (const auto& [stream, events] : chains) {
    if (stream == "daemon") continue;
    if (events.front() != "submitted" && events.front() != "restarted") {
      std::printf("  warning: %s opens with '%s' (expected submitted)\n",
                  stream.c_str(), events.front().c_str());
    }
    if (!terminal_event(events.back())) {
      std::printf("  warning: %s still in flight (last event '%s')\n",
                  stream.c_str(), events.back().c_str());
    }
  }
  return 0;
}

/// The three scheduling/latency percentiles of one histogram family, or
/// "-" columns when the family is absent (fresh daemon, no samples yet).
void print_percentiles(const std::vector<casurf::obs::prom::Family>& families,
                       const char* family_name, const char* label) {
  const casurf::obs::prom::Family* fam = nullptr;
  for (const auto& f : families) {
    if (f.name == family_name && f.type == "histogram") fam = &f;
  }
  bool any = false;
  if (fam != nullptr) {
    for (const auto& s : fam->samples) {
      if (s.name == fam->name + "_count" && s.value > 0) any = true;
    }
  }
  if (!any) {
    std::printf("  %-22s %10s %10s %10s\n", label, "-", "-", "-");
    return;
  }
  const double p50 = casurf::obs::prom::quantile(*fam, 0.50);
  const double p95 = casurf::obs::prom::quantile(*fam, 0.95);
  const double p99 = casurf::obs::prom::quantile(*fam, 0.99);
  std::printf("  %-22s %9.3fs %9.3fs %9.3fs\n", label, p50 / 1e9, p95 / 1e9,
              p99 / 1e9);
}

int print_serve(std::uint16_t port) {
  using casurf::serve::HttpResponse;
  HttpResponse stats;
  try {
    stats = casurf::serve::http_request(port, "GET", "/stats");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: 127.0.0.1:%u: %s\n",
                 static_cast<unsigned>(port), e.what());
    return 1;
  }
  if (stats.status != 200) {
    std::fprintf(stderr, "error: GET /stats returned %d\n", stats.status);
    return 1;
  }
  Value doc;
  try {
    doc = Value::parse(stats.body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: /stats: %s\n", e.what());
    return 1;
  }

  std::printf("casurf_serve on 127.0.0.1:%u\n", static_cast<unsigned>(port));
  std::printf("  %-12s %llu queued, %llu running, %llu done, %llu failed, "
              "%llu stopped\n",
              "jobs:",
              static_cast<unsigned long long>(doc.number_or("queued", 0)),
              static_cast<unsigned long long>(doc.number_or("running", 0)),
              static_cast<unsigned long long>(doc.number_or("done", 0)),
              static_cast<unsigned long long>(doc.number_or("failed", 0)),
              static_cast<unsigned long long>(doc.number_or("stopped", 0)));
  std::printf("  %-12s %llu of %llu busy; %s; suggested Retry-After %llus\n",
              "slots:",
              static_cast<unsigned long long>(doc.number_or("running", 0)),
              static_cast<unsigned long long>(doc.number_or("slots", 0)),
              doc.find("draining") != nullptr && doc.at("draining").as_bool()
                  ? "draining"
                  : "accepting",
              static_cast<unsigned long long>(doc.number_or("retry_after", 0)));

  HttpResponse metrics;
  try {
    metrics = casurf::serve::http_request(port, "GET", "/metrics");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: GET /metrics: %s\n", e.what());
    return 1;
  }
  if (metrics.status != 200) {
    std::fprintf(stderr, "error: GET /metrics returned %d\n", metrics.status);
    return 1;
  }
  std::vector<casurf::obs::prom::Family> families;
  try {
    families = casurf::obs::prom::parse(metrics.body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: /metrics: %s\n", e.what());
    return 1;
  }

  // Whole-fleet totals worth a glance; percentile rows from the two
  // scheduling histograms (docs/SERVING.md, "Serving telemetry").
  auto family_total = [&](const char* name) {
    double total = 0;
    for (const auto& f : families) {
      if (f.name != name) continue;
      for (const auto& s : f.samples) {
        if (s.name == f.name) total += s.value;
      }
    }
    return total;
  };
  std::printf("  %-12s %.0f submissions, %.0f restarts, %.0f preemptions, "
              "%.0f backpressure\n",
              "lifetime:", family_total("casurf_job_submissions_total"),
              family_total("casurf_job_restarts_total"),
              family_total("casurf_job_preemptions_total"),
              family_total("casurf_http_backpressure_total"));
  std::printf("  %-12s %.0f trials, %.0f reactions, %.0f drift alarms\n",
              "workers:", family_total("casurf_worker_trials_total"),
              family_total("casurf_worker_reactions_total"),
              family_total("casurf_worker_drift_alarms_total"));
  std::printf("  %-22s %10s %10s %10s\n", "latency", "p50", "p95", "p99");
  print_percentiles(families, "casurf_job_queue_wait_ns", "queue wait");
  print_percentiles(families, "casurf_job_duration_ns", "job duration");
  print_percentiles(families, "casurf_http_request_duration_ns", "http request");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool trace_mode = false;
  bool events_mode = false;
  bool merge_mode = false;
  long serve_port = -1;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (arg == "--trace") trace_mode = true;
    else if (arg == "--events") events_mode = true;
    else if (arg == "--merge-traces") merge_mode = true;
    else if (arg == "--serve") {
      if (i + 1 >= argc) usage(argv[0], "--serve expects a port");
      char* end = nullptr;
      serve_port = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || serve_port < 1 ||
          serve_port > 65535) {
        usage(argv[0], "--serve expects a port in 1..65535");
      }
    }
    else if (!arg.empty() && arg.front() == '-') {
      usage(argv[0], ("unknown flag: " + std::string(arg)).c_str());
    } else {
      files.emplace_back(arg);
    }
  }
  if (static_cast<int>(trace_mode) + static_cast<int>(events_mode) +
          static_cast<int>(merge_mode) >
      1) {
    usage(argv[0], "--trace, --events, and --merge-traces are mutually exclusive");
  }
  if (serve_port > 0) {
    if (trace_mode || events_mode || merge_mode || !files.empty()) {
      usage(argv[0], "--serve takes no input files");
    }
    return print_serve(static_cast<std::uint16_t>(serve_port));
  }
  if (merge_mode) {
    if (files.size() < 2) {
      usage(argv[0], "--merge-traces expects OUT and at least one input trace");
    }
    return merge_traces(files[0], {files.begin() + 1, files.end()});
  }
  if (files.empty()) usage(argv[0], "expected at least one input file");
  if (files.size() > 2) usage(argv[0], "expected at most two input files");
  if (trace_mode && files.size() != 1) {
    usage(argv[0], "--trace takes exactly one file");
  }
  if (events_mode && files.size() != 1) {
    usage(argv[0], "--events takes exactly one file");
  }

  if (trace_mode) return print_trace(files[0]);
  if (events_mode) return print_events(files[0]);
  if (files.size() == 1) {
    print_single(load_report(files[0]));
  } else {
    print_delta(load_report(files[0]), load_report(files[1]));
  }
  return 0;
}
