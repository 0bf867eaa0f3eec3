// Traced pass: per-layer numbers. The ledger times calls into the public
// library from the outside (spans kept in memory, written as a Chrome
// trace at the end) and harvests the timers casurf_run writes to its
// --metrics report. It never attaches probes to a simulator.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>

#include "ca/fastpath.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "lattice/bitplanes.hpp"
#include "ledger.hpp"
#include "models/diffusion.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/coloring.hpp"
#include "rng/counter_rng.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/coverage.hpp"
#include "stats/csv.hpp"

namespace ledger {

namespace {

namespace json = casurf::obs::json;
using Clock = std::chrono::steady_clock;

/// Spans at the boundaries of the ledger's calls into each layer. Spans
/// nest on the ledger's one thread; a span's self time is its duration minus
/// the durations of its direct children.
class Spans {
 public:
  void open(std::string name) {
    spans_.push_back({std::move(name), Clock::now(), {}, stack_.empty() ? kRoot : stack_.back()});
    stack_.push_back(spans_.size() - 1);
  }

  /// Close the innermost open span; returns its duration in ms.
  double close() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end = Clock::now();
    return ms(s);
  }

  /// (total ms, self ms) per span name.
  [[nodiscard]] std::map<std::string, std::pair<double, double>> by_name() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kRoot) child_ms[s.parent] += ms(s);
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].first += ms(spans_[i]);
      out[spans_[i].name].second += ms(spans_[i]) - child_ms[i];
    }
    return out;
  }

  /// Chrome trace with the casurf-trace/1 footer casurf_report --trace reads.
  void write(const std::string& path, const std::string& trace_id) const {
    const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    json::Writer w;
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    w.begin_object();
    w.key("name"), w.string("thread_name");
    w.key("ph"), w.string("M");
    w.key("pid"), w.u64(1);
    w.key("tid"), w.u64(0);
    w.key("args");
    w.begin_object();
    w.key("name"), w.string("casurf_ledger");
    w.end_object();
    w.end_object();
    for (const Span& s : spans_) {
      w.begin_object();
      w.key("name"), w.string(s.name);
      w.key("cat"), w.string("ledger");
      w.key("ph"), w.string("X");
      w.key("pid"), w.u64(1);
      w.key("tid"), w.u64(0);
      w.key("ts"), w.number(us(s.start));
      w.key("dur"), w.number(us(s.end) - us(s.start));
      w.end_object();
    }
    w.end_array();
    w.key("otherData");
    w.begin_object();
    w.key("schema"), w.string("casurf-trace/1");
    w.key("t0_ns"), w.u64(static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t0.time_since_epoch())
                            .count()));
    w.key("trace_id"), w.string(trace_id);
    w.key("recorded_events"), w.u64(spans_.size());
    w.key("dropped_events"), w.u64(0);
    w.key("ring_capacity"), w.u64(spans_.size());
    w.key("rings");
    w.begin_array();
    w.begin_object();
    w.key("tid"), w.u64(0);
    w.key("name"), w.string("casurf_ledger");
    w.key("recorded"), w.u64(spans_.size());
    w.key("retained"), w.u64(spans_.size());
    w.key("dropped"), w.u64(0);
    w.end_object();
    w.end_array();
    w.end_object();
    w.end_object();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const std::string text = std::move(w).str();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok) throw std::runtime_error("cannot write " + path);
  }

 private:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::size_t parent;
  };
  static double ms(const Span& s) {
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

casurf::ReactionModel build_model(const Workload& w) {
  // The same parameters casurf_run uses for --model.
  if (w.model == "zgb") {
    return casurf::models::make_zgb(casurf::models::ZgbParams::from_y(w.y, 20.0)).model;
  }
  if (w.model == "pt100") return casurf::models::make_pt100().model;
  return casurf::models::make_diffusion(1.0).model;
}

/// casurf_run's initial state: vacant lattice, or species 1 scattered on a
/// `coverage0` fraction of sites from the seed.
casurf::Configuration initial_config(const Workload& w, const casurf::ReactionModel& model,
                                     std::uint64_t seed) {
  casurf::Configuration cfg(casurf::Lattice(lattice_side(), lattice_side()),
                            model.species().size(), 0);
  if (w.coverage0 > 0 && model.species().size() >= 2) {
    casurf::CounterRng rng(seed, 0xc0ffee);
    for (casurf::SiteIndex s = 0; s < cfg.size(); ++s) {
      if (rng.next_double() < w.coverage0) cfg.set(s, 1);
    }
  }
  return cfg;
}

/// Request the batched trial path only where SimulationOptions still has
/// the field, so the ledger compiles once the option is gone.
template <class Options>
void request_fast_path(Options& o) {
  if constexpr (requires { o.fast_path = true; }) o.fast_path = true;
}

casurf::SimulationOptions options_for(const Config& c, std::uint64_t seed) {
  casurf::SimulationOptions o;
  o.seed = seed;
  if (c.name == "vssm") {
    o.algorithm = casurf::Algorithm::kVssm;
  } else if (c.name == "pndca_t4") {
    o.algorithm = casurf::Algorithm::kParallelPndca;
    o.threads = 4;
  } else if (c.name == "lpndca") {
    o.algorithm = casurf::Algorithm::kLPndca;
    o.l_trials = 100;
  } else {
    o.algorithm = casurf::Algorithm::kPndca;
  }
  if (c.fast_path) request_fast_path(o);
  return o;
}

/// What the in-process run of one configuration measured.
struct InProcess {
  double make_ms = 0;
  double run_ms = 0;  ///< sum of the sample-interval spans
  double csv_ms = 0;
  std::vector<double> step_ms;  ///< per mc_step (CA configurations)
  casurf::SimCounters counters;
  std::string csv_path;
};

std::optional<double> timer_ms(const json::Value* report, const std::string& name) {
  if (report == nullptr) return std::nullopt;
  const json::Value* metrics = report->find("metrics");
  const json::Value* timers = metrics != nullptr ? metrics->find("timers") : nullptr;
  const json::Value* t = timers != nullptr ? timers->find(name) : nullptr;
  if (t == nullptr) return std::nullopt;
  return t->number_or("total_ns", 0) / 1e6;
}

}  // namespace

RunResult run_traced(const RunArgs& a) {
  const Workload& w = *a.workload;
  RunResult r;
  r.workload = w.name;
  r.seed = a.seed;
  r.traced = true;
  Metrics& m = r.metrics;
  const std::string work = a.out_dir + "/" + w.name + ".layers.work";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const bool fast_flag = help_lists_fast_path(a.casurf_run, work);
  const std::vector<Config>& configs = timed_configs();
  // In process the 4-thread engine runs too, after pndca_fast.
  std::vector<Config> in_process = configs;
  in_process.insert(in_process.begin() + 3,
                    Config{"pndca_t4", {"--algorithm", "parallel", "--threads", "4"}, true});
  Spans spans;
  spans.open("ledger.traced");

  // --- Library layers, timed in process -----------------------------------
  spans.open("models.build");
  const casurf::ReactionModel model = build_model(w);
  m.add("models.build_ms", spans.close(), "ms");
  // Build the lazy alias table here, so the 4-thread engine's workers do
  // not race to build it (README.md, finding 5).
  (void)model.alias_table();
  spans.open("partition.build");
  const casurf::Partition partition =
      casurf::make_partition(casurf::Lattice(lattice_side(), lattice_side()), model);
  m.add("partition.build_ms", spans.close(), "ms");
  m.add("partition.chunks", static_cast<double>(partition.num_chunks()), "count");

  std::map<std::string, InProcess> in;
  std::optional<casurf::Configuration> midway;  // PNDCA state at t_end/2
  for (const Config& c : in_process) {
    InProcess& ip = in[c.name];
    const casurf::SimulationOptions options = options_for(c, a.seed);
    spans.open("core.run." + c.name);
    spans.open("core.make_simulator." + c.name);
    std::unique_ptr<casurf::Simulator> sim =
        casurf::make_simulator(model, initial_config(w, model, a.seed), options);
    ip.make_ms = spans.close();

    // casurf_run's sampling loop: targets k * dt, sampled after each.
    casurf::CoverageRecorder recorder;
    recorder.sample(*sim);
    for (std::uint64_t k = 1; static_cast<double>(k) * w.dt <= w.t_end; ++k) {
      const double next = static_cast<double>(k) * w.dt;
      spans.open("core.interval." + c.name);
      if (c.name == "vssm") {
        sim->advance_to(next);  // events are too short to time one by one
      } else {
        // Simulator::advance_to, one timed mc_step at a time.
        while (sim->time() < next) {
          const double before = sim->time();
          spans.open("core.step." + c.name);
          sim->mc_step();
          ip.step_ms.push_back(spans.close());
          if (sim->time() <= before) {
            sim->advance_to(next);  // absorbing state: let the library jump
            break;
          }
        }
      }
      ip.run_ms += spans.close();
      recorder.sample(*sim);
      if (c.name == "pndca" && !midway && sim->time() >= w.t_end / 2) {
        midway = sim->configuration();
      }
    }
    ip.counters = sim->counters();

    std::vector<std::string> names;
    std::vector<casurf::TimeSeries> series;
    for (casurf::Species s = 0; s < model.species().size(); ++s) {
      names.push_back(model.species().name(s));
      series.push_back(recorder.series(s));
    }
    ip.csv_path = work + "/inprocess." + c.name + ".csv";
    spans.open("stats.csv_write." + c.name);
    casurf::stats::write_csv_series(ip.csv_path, names, series);
    ip.csv_ms = spans.close();

    if (c.name == "pndca") {
      const std::string ck = work + "/pndca.ck";
      spans.open("io.checkpoint_save");
      casurf::io::save_checkpoint(ck, *sim);
      m.add("io.checkpoint_save_ms", spans.close(), "ms");
      m.add("io.checkpoint_bytes", static_cast<double>(std::filesystem::file_size(ck)), "bytes");
      std::unique_ptr<casurf::Simulator> fresh =
          casurf::make_simulator(model, initial_config(w, model, a.seed), options);
      spans.open("io.checkpoint_restore");
      casurf::io::restore_checkpoint(ck, *fresh);
      m.add("io.checkpoint_restore_ms", spans.close(), "ms");
      r.ops.check(fresh->configuration() == sim->configuration() && fresh->time() == sim->time(),
                  "checkpoint restore reproduces the PNDCA state");
    }
    spans.close();
  }

  // Trial kernel over every chunk, on the PNDCA configuration at t_end/2.
  if (midway) {
    spans.open("ca.kernel_setup");
    const casurf::SpeciesBitplanes planes(*midway);
    const casurf::ProbePlans probes(model, lattice_side(), lattice_side());
    casurf::EnabledTypeSet enabled;
    enabled.rebuild(planes, probes);
    spans.close();
    std::vector<casurf::TrialHit> hits(partition.max_chunk_size());
    const std::uint64_t seed_hash = casurf::CounterRng::seed_hash(a.seed);
    std::uint64_t trials = 0, passed = 0;
    spans.open("ca.batch_trials");
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t sweep = 0; sweep < 5 || Clock::now() - t0 < std::chrono::milliseconds(200);
         ++sweep) {
      for (casurf::ChunkId c = 0; c < partition.num_chunks(); ++c) {
        const std::vector<casurf::SiteIndex>& sites = partition.chunk(c);
        passed += casurf::batch_trials(sweep, seed_hash, sites.data(), sites.size(),
                                       model.alias_table(), enabled, hits.data());
        trials += sites.size();
      }
    }
    const double ms = spans.close();
    m.add("ca.kernel_ns_per_trial", ms * 1e6 / static_cast<double>(trials), "ns");
    r.context.add("ca.kernel_pass_ratio",
                  static_cast<double>(passed) / static_cast<double>(trials), "fraction");
  } else {
    m.absent("ca.kernel_ns_per_trial", "ns", "PNDCA never reached t_end/2");
  }

  // Per-trial exponential time draw, as PNDCA's time advance makes it.
  {
    constexpr int kDraws = 10'000'000;
    casurf::Xoshiro256 rng(a.seed);
    const double nk = static_cast<double>(lattice_side()) * lattice_side() * model.total_rate();
    double sum = 0;
    spans.open("rng.exponential");
    for (int i = 0; i < kDraws; ++i) sum += casurf::exponential(rng, nk);
    const double ns = spans.close() * 1e6 / kDraws;
    r.ops.check(std::fabs(sum * nk / kDraws - 1) < 0.01, "exponential draws have mean 1/NK");
    m.add("rng.exp_ns_per_draw", ns, "ns");
    m.add("ca.time_advance_ms_est", ns * static_cast<double>(in["pndca"].counters.trials) / 1e6,
          "ms");
  }

  // Fork-join cost of the 4-thread pool with an empty body.
  {
    constexpr int kJoins = 2000;
    casurf::ThreadPool pool(4);
    const std::function<void(unsigned, std::size_t, std::size_t)> noop =
        [](unsigned, std::size_t, std::size_t) {};
    for (int i = 0; i < 100; ++i) pool.parallel_for(4, noop);
    spans.open("parallel.forkjoin");
    for (int i = 0; i < kJoins; ++i) pool.parallel_for(4, noop);
    const double us = spans.close() * 1e3 / kJoins;
    m.add("parallel.forkjoin_us", us, "us");
    // The engine forks once per chunk per step.
    m.add("parallel.forkjoin_ms_est",
          us * static_cast<double>(in["pndca_t4"].counters.steps * partition.num_chunks()) / 1e3,
          "ms");
  }
  m.add("dmc.event_us",
        in["vssm"].run_ms * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, in["vssm"].counters.steps)),
        "us");

  // --- casurf_run launches --------------------------------------------------
  struct Out {
    double wall_s = 0;
    std::string csv;
    std::optional<Summary> summary;
    std::optional<json::Value> report;
  };
  std::map<std::string, Out> out;
  const auto run = [&](const std::string& tag, const Config& c, std::uint64_t seed,
                       std::vector<std::string> extra) {
    const std::string path = work + "/" + tag;
    std::vector<std::string> argv = {a.casurf_run};
    for (std::string& s : run_args(w, c, seed, fast_flag, path + ".csv")) argv.push_back(std::move(s));
    for (std::string& s : extra) argv.push_back(std::move(s));
    spans.open("launch." + tag);
    const Launch l = launch(argv, path + ".out");
    spans.close();
    std::fprintf(stderr, "%-20s %8.3f s  exit %d\n", tag.c_str(), l.wall_s, l.exit_code);
    if (!r.ops.check(l.exit_code == 0, tag + " exited with " + std::to_string(l.exit_code))) {
      return;
    }
    Out& o = out[tag];
    o.wall_s = l.wall_s;
    o.csv = read_file(path + ".csv");
    o.summary = parse_summary(l.out);
    if (std::filesystem::exists(path + ".report.json")) {
      try {
        o.report = json::Value::parse(read_file(path + ".report.json"));
      } catch (const std::exception& e) {
        r.ops.check(false, tag + " report: " + e.what());
      }
    }
  };
  const std::vector<std::string> ca = {"pndca", "pndca_fast", "lpndca"};
  const auto config = [&](const std::string& name) -> const Config& {
    for (const Config& c : configs) {
      if (c.name == name) return c;
    }
    throw std::logic_error("no configuration " + name);
  };
  for (const Config& c : configs) run(c.name, c, a.seed, {});
  run("tpndca", tpndca_config(), a.seed, {});
  run("vssm.next_seed", config("vssm"), a.seed + 1, {});
  for (const std::string& c : ca) {
    const std::string p = work + "/" + c;
    run(c + ".metrics", config(c), a.seed, {"--metrics", p + ".metrics.report.json"});
    run(c + ".trace", config(c), a.seed, {"--trace", p + ".trace.trace.json"});
  }
  // The threaded engine on one worker: its barrier replay and merge are
  // serial at any thread count.
  const Config t1{"pndca_t1", {"--algorithm", "parallel", "--threads", "1"}, true};
  run(t1.name, t1, a.seed, {"--metrics", work + "/pndca_t1.report.json"});

  // --- Checks ------------------------------------------------------------------
  const auto same_csv = [&](const std::string& tag, const std::string& ref) {
    if (out.count(tag) && out.count(ref)) {
      r.ops.check(out[tag].csv == out[ref].csv, tag + ": CSV differs from " + ref);
    }
  };
  for (const char* tag : {"pndca_fast", "pndca.metrics", "pndca.trace", "pndca_fast.metrics",
                          "pndca_fast.trace", "pndca_t1"}) {
    same_csv(tag, "pndca");
  }
  same_csv("lpndca.metrics", "lpndca");
  same_csv("lpndca.trace", "lpndca");
  for (const auto& [tag, o] : out) {
    (void)check_csv(r.ops, tag, o.csv, w.t_end, w.dt);
    r.ops.check(o.summary.has_value(), tag + ": no '# N trials, M executed' line");
  }
  // The in-process runs must be the trajectories casurf_run produces, or
  // their per-layer numbers describe some other run. The 4-thread engine
  // must reproduce the serial PNDCA trajectory (the determinism guarantee).
  for (const Config& c : in_process) {
    const std::string cli = c.name == "pndca_t4" ? "pndca" : c.name;
    if (!out.count(cli)) continue;
    const Out& o = out[cli];
    r.ops.check(read_file(in[c.name].csv_path) == o.csv,
                c.name + ": in-process CSV differs from casurf_run " + cli + "'s");
    r.ops.check(o.summary && o.summary->trials == in[c.name].counters.trials &&
                    o.summary->executed == in[c.name].counters.executed,
                c.name + ": in-process counters differ from casurf_run " + cli + "'s");
  }

  // --- Per-layer metrics ----------------------------------------------------------
  const auto add_or_absent = [&](const std::string& name, std::optional<double> v,
                                 const char* unit, const std::string& why) {
    if (v && std::isfinite(*v)) {
      m.add(name, *v, unit);
    } else {
      m.absent(name, unit, why);
    }
  };
  for (const Config& c : in_process) {
    m.add("core.make_simulator_ms." + c.name, in[c.name].make_ms, "ms");
  }
  m.add("ca.fastpath_build_ms", in["pndca_fast"].make_ms - in["pndca"].make_ms, "ms");
  for (const std::string c : {"pndca", "pndca_fast", "pndca_t4", "lpndca"}) {
    const std::vector<double>& steps = in[c].step_ms;
    add_or_absent("core.step_ms.p50." + c, steps.empty() ? std::nullopt : std::optional(median(steps)),
                  "ms", "no steps");
    const std::optional<Tail> t = tail(steps);
    add_or_absent("core.step_ms.tail." + c, t ? std::optional(t->value) : std::nullopt, "ms",
                  "ten steps or fewer");
    if (t) r.context.add("core.step_ms.tail_percentile." + c, t->percentile, "percentile");
    m.add("core.steps." + c, static_cast<double>(in[c].counters.steps), "count");
  }
  for (const char* name : {"pndca", "lpndca", "tpndca"}) {
    const std::string c = name;
    if (!out.count(c) || !out[c].summary) {
      for (const char* what : {"ca.trials.", "ca.executed."}) {
        m.absent(what + c, "count", "no summary line from " + c);
      }
      m.absent("ca.acceptance." + c, "fraction", "no summary line from " + c);
      continue;
    }
    const Summary s = *out[c].summary;
    m.add("ca.trials." + c, static_cast<double>(s.trials), "count");
    m.add("ca.executed." + c, static_cast<double>(s.executed), "count");
    m.add("ca.acceptance." + c,
          static_cast<double>(s.executed) / static_cast<double>(std::max<std::uint64_t>(1, s.trials)),
          "fraction");
  }
  {
    std::vector<double> csv_ms;
    for (const Config& c : in_process) csv_ms.push_back(in[c.name].csv_ms);
    m.add("stats.csv_write_ms", median(csv_ms), "ms");
  }

  const auto report = [&](const std::string& tag) -> const json::Value* {
    return out.count(tag) && out[tag].report ? &*out[tag].report : nullptr;
  };
  const auto timer = [&](const std::string& metric, const std::string& tag,
                         const std::string& name) {
    const std::optional<double> v = timer_ms(report(tag), name);
    add_or_absent(metric, v, "ms", "no " + name + " timer in the " + tag + " report");
    return v;
  };
  for (const std::string c : {"pndca", "pndca_fast", "pndca_t1"}) {
    const std::string tag = c == "pndca_t1" ? c : c + ".metrics";
    const auto step = timer("pndca.step_ms." + c, tag, "pndca/step");
    const auto sweep = timer("pndca.sweep_ms." + c, tag, "pndca/sweep");
    const auto plan = timer("pndca.plan_ms." + c, tag, "pndca/plan");
    add_or_absent("ca.outside_sweep_ms." + c,
                  step && sweep && plan ? std::optional(*step - *sweep - *plan) : std::nullopt,
                  "ms", "a pndca/{step,sweep,plan} timer is missing");
  }
  timer("lpndca.step_ms", "lpndca.metrics", "lpndca/step");
  timer("lpndca.select_ms", "lpndca.metrics", "lpndca/select");
  timer("parallel.recheck_ms", "pndca_t1", "threads/recheck");
  timer("parallel.merge_ms", "pndca_t1", "threads/merge");
  timer("parallel.busy_ms", "pndca_t1", "threads/busy/worker0");
  const auto wall = [&](const std::string& tag) {
    return out.count(tag) ? std::optional(out[tag].wall_s) : std::nullopt;
  };
  add_or_absent("parallel.wall_s.t1", wall("pndca_t1"), "s", "pndca_t1 launch failed");
  for (const std::string& c : ca) {
    for (const char* kind : {"metrics", "trace"}) {
      const auto with = wall(c + "." + kind);
      const auto without = wall(c);
      add_or_absent(std::string("obs.") + kind + "_overhead." + c,
                    with && without ? std::optional(*with / *without - 1) : std::nullopt,
                    "ratio", c + " launch failed");
    }
  }
  for (const Config& c : configs) {
    const InProcess& ip = in[c.name];
    const auto e2e = wall(c.name);
    add_or_absent("obs.unattributed_ms." + c.name,
                  e2e ? std::optional(*e2e * 1e3 - (*m.find("models.build_ms")->value +
                                                    ip.make_ms + ip.run_ms + ip.csv_ms))
                      : std::nullopt,
                  "ms", c.name + " launch failed");
  }

  // Accuracy against exact VSSM at the same seed, and VSSM's own
  // seed-to-seed floor.
  const auto accuracy = [&](const std::string& name, const std::string& tag,
                            const std::string& ref) {
    std::optional<double> ce, rb;
    if (out.count(tag) && out.count(ref) && out[tag].summary && out[ref].summary) {
      try {
        ce = cov_err(parse_csv(out[tag].csv), parse_csv(out[ref].csv), w.t_end);
        rb = rate_bias(out[tag].summary->executed, out[ref].summary->executed);
      } catch (const std::exception& e) {
        r.ops.check(false, tag + " accuracy: " + e.what());
      }
    }
    add_or_absent("accuracy.cov_err" + name, ce, "fraction", tag + " or " + ref + " missing");
    add_or_absent("accuracy.rate_bias" + name, rb, "fraction", tag + " or " + ref + " missing");
  };
  for (const std::string c : {"pndca", "lpndca", "tpndca"}) accuracy("." + c, c, "vssm");
  accuracy("_floor", "vssm.next_seed", "vssm");

  const auto ratio = [&](const char* name, const std::string& num, const std::string& den) {
    const auto top = wall(num), bottom = wall(den);
    add_or_absent(name, top && bottom ? std::optional(*top / *bottom) : std::nullopt, "ratio",
                  num + " or " + den + " launch failed");
  };
  ratio("derived.ca_over_vssm", "pndca_fast", "vssm");
  ratio("derived.fast_over_default", "pndca_fast", "pndca");
  // In process: no 4-thread launch runs (see timed_configs()).
  m.add("derived.speedup_t4", in["pndca_fast"].run_ms / in["pndca_t4"].run_ms, "ratio");

  spans.close();
  for (const auto& [name, ms] : spans.by_name()) {
    r.context.add("self_ms." + name, ms.second, "ms");
  }
  spans.write(a.out_dir + "/" + w.name + ".trace.json", "ledger/" + w.name);
  return r;
}

}  // namespace ledger
