// End-to-end pass: casurf_run processes timed from exec to exit, their
// outputs checked, medians reported.
//
// Every wall is scaled to the reference host speed: a launch that took
// `wall` while calibrate() took `c` just before it reports
// wall * kReferenceSpeed / c. On a shared host the speed drifts by 10-25%
// over tens of seconds, and the scaling takes most of that drift out of the
// run-to-run spread (README.md, "Host-speed scaling"). The raw medians are
// reported as context.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include "ledger.hpp"

namespace ledger {

namespace {

/// Repetitions of the whole configuration set a run makes at least; more
/// follow while the next one is projected to end within --seconds.
constexpr int kMinReps = 3;
/// Set-up probes per repetition.
constexpr int kSetupPerRep = 2;

bool pndca_family(const std::string& config) {
  return config == "pndca" || config == "pndca_fast";
}

/// Parsed outputs of a config's first launch, kept for the accuracy metrics.
struct Output {
  Csv csv;
  Summary summary;
};

}  // namespace

RunResult run_e2e(const RunArgs& a) {
  const Workload& w = *a.workload;
  RunResult r;
  r.workload = w.name;
  r.seed = a.seed;
  const std::string work = a.out_dir + "/" + w.name + ".work";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const bool fast_flag = help_lists_fast_path(a.casurf_run, work);

  std::map<std::string, std::vector<double>> walls, raw_walls;
  std::vector<double> setup, speeds;
  double peak_rss_mb = 0;
  std::map<std::string, Output> first;
  std::string family_csv;  // the pndca-family CSV every other must equal
  int launches = 0;

  // One launch plus its checks; its raw wall time unless the launch failed.
  const auto run = [&](const Config& c) -> std::optional<double> {
    const bool probe = &c == &setup_config();
    const std::string tag = work + "/" + std::to_string(launches++) + "." + c.name;
    std::vector<std::string> argv = {a.casurf_run};
    for (std::string& s : run_args(w, c, a.seed, fast_flag, tag + ".csv")) argv.push_back(std::move(s));
    speeds.push_back(calibrate());
    const Launch l = launch(argv, tag + ".out");
    std::fprintf(stderr, "%-12s %8.3f s  exit %d\n", c.name.c_str(), l.wall_s, l.exit_code);
    if (!r.ops.check(l.exit_code == 0, c.name + " exited with " + std::to_string(l.exit_code))) {
      return std::nullopt;
    }
    peak_rss_mb = std::max(peak_rss_mb, l.maxrss_mb);

    const std::string text = read_file(tag + ".csv");
    std::optional<Csv> csv = probe ? check_csv(r.ops, c.name, text, kProbeTime, kProbeTime)
                                   : check_csv(r.ops, c.name, text, w.t_end, w.dt);
    if (!csv) return std::nullopt;
    if (probe) return l.wall_s;

    const std::optional<Summary> summary = parse_summary(l.out);
    r.ops.check(summary.has_value(), c.name + ": no '# N trials, M executed' line");
    if (pndca_family(c.name)) {
      if (family_csv.empty()) {
        family_csv = text;
      } else {
        r.ops.check(text == family_csv,
                    c.name + ": CSV differs from the first PNDCA-family CSV (" + tag + ".csv)");
      }
    }
    if (summary && !first.count(c.name)) first[c.name] = Output{std::move(*csv), *summary};
    return l.wall_s;
  };

  (void)run(setup_config());  // untimed warm-up
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Config>& configs = timed_configs();
  for (int rep = 0;; ++rep) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (rep >= kMinReps && elapsed + elapsed / rep > a.seconds) break;
    const auto scaled = [&](double wall) { return wall * kReferenceSpeed / speeds.back(); };
    for (int k = 0; k < kSetupPerRep; ++k) {
      if (const auto wall = run(setup_config())) setup.push_back(scaled(*wall));
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const Config& c = configs[(i + static_cast<std::size_t>(rep)) % configs.size()];
      if (const auto wall = run(c)) {
        walls[c.name].push_back(scaled(*wall));
        raw_walls[c.name].push_back(*wall);
      }
    }
  }
  (void)run(tpndca_config());

  const auto gated = [&](const std::string& name, const std::vector<double>& v,
                         const char* unit) {
    if (v.empty()) {
      r.metrics.absent(name, unit, "no successful launch");
    } else {
      r.metrics.add(name, median(v), unit);
    }
    r.samples.emplace_back(name, v);
  };
  gated("setup_s", setup, "s");
  for (const Config& c : configs) gated("wall_s." + c.name, walls[c.name], "s");
  if (peak_rss_mb > 0) {
    r.metrics.add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    r.metrics.absent("peak_rss_mb", "MB", "no successful launch");
  }

  // Accuracy against the exact VSSM run of the same seed. Not gated: it is
  // statistical (seed-to-seed spread exceeds any relative bound).
  if (first.count("vssm")) {
    const Output& ref = first["vssm"];
    for (const char* c : {"pndca", "lpndca", "tpndca"}) {
      if (!first.count(c)) continue;
      try {
        r.context.add(std::string("cov_err.") + c, cov_err(first[c].csv, ref.csv, w.t_end), "fraction");
        r.context.add(std::string("rate_bias.") + c,
                      rate_bias(first[c].summary.executed, ref.summary.executed), "fraction");
      } catch (const std::exception& e) {
        r.ops.check(false, std::string(c) + " accuracy: " + e.what());
      }
    }
  }
  for (const Config& c : configs) {
    if (!raw_walls[c.name].empty()) {
      r.context.add("raw_wall_s." + c.name, median(raw_walls[c.name]), "s");
    }
  }
  r.context.add("calibration_s", median(speeds), "s");
  r.samples.emplace_back("calibration_s", speeds);
  const auto wall = [&](const char* c) { return walls[c].empty() ? NAN : median(walls[c]); };
  r.context.add("derived.ca_over_vssm", wall("pndca_fast") / wall("vssm"), "ratio");
  r.context.add("derived.fast_over_default", wall("pndca_fast") / wall("pndca"), "ratio");
  return r;
}

}  // namespace ledger
