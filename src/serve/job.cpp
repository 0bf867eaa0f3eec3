#include "serve/job.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/simulation.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/coverage.hpp"
#include "util/failpoint.hpp"

namespace casurf::serve {
namespace {

using obs::json::Value;

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error("job spec: " + what);
}

constexpr std::array<std::string_view, 5> kModels = {
    "zgb", "pt100", "diffusion", "single-file", "ising"};

template <std::size_t N>
bool one_of(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

bool valid_tenant(std::string_view t) {
  if (t.empty() || t.size() > 64) return false;
  for (const char c : t) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

double finite_number(const Value& v, const char* key) {
  if (!v.is_number()) reject(std::string(key) + " must be a number");
  const double d = v.as_number();
  if (!std::isfinite(d)) reject(std::string(key) + " must be finite");
  return d;
}

double positive_number(const Value& v, const char* key) {
  const double d = finite_number(v, key);
  if (!(d > 0)) reject(std::string(key) + " must be positive");
  return d;
}

std::uint64_t non_negative_integer(const Value& v, const char* key) {
  const double d = finite_number(v, key);
  if (d < 0 || d != std::floor(d) || d > 9.007199254740992e15) {
    reject(std::string(key) + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

bool boolean(const Value& v, const char* key) {
  if (v.kind() != Value::Kind::kBool) {
    reject(std::string(key) + " must be true or false");
  }
  return v.as_bool();
}

const std::string& string_value(const Value& v, const char* key) {
  if (!v.is_string()) reject(std::string(key) + " must be a string");
  return v.as_string();
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

JobSpec JobSpec::from_json(const Value& v) {
  if (!v.is_object()) reject("body must be a JSON object");
  JobSpec spec;
  for (const auto& [key, value] : v.members()) {
    if (key == "tenant") {
      spec.tenant = string_value(value, "tenant");
    } else if (key == "priority") {
      const std::uint64_t p = non_negative_integer(value, "priority");
      if (p > 9) reject("priority must be 0..9");
      spec.priority = static_cast<int>(p);
    } else if (key == "retries") {
      spec.retries = non_negative_integer(value, "retries");
      if (spec.retries > 1000) reject("retries must be <= 1000");
    } else if (key == "model") {
      spec.model = string_value(value, "model");
    } else if (key == "model_text") {
      spec.model_text = string_value(value, "model_text");
      if (spec.model_text.size() > 256 * 1024) {
        reject("model_text must be under 256 KiB");
      }
    } else if (key == "algorithm") {
      spec.algorithm = string_value(value, "algorithm");
    } else if (key == "width") {
      const std::uint64_t w = non_negative_integer(value, "width");
      if (w == 0 || w > 1u << 14) reject("width must be 1..16384");
      spec.width = static_cast<std::int32_t>(w);
    } else if (key == "height") {
      const std::uint64_t h = non_negative_integer(value, "height");
      if (h == 0 || h > 1u << 14) reject("height must be 1..16384");
      spec.height = static_cast<std::int32_t>(h);
    } else if (key == "seed") {
      spec.seed = non_negative_integer(value, "seed");
    } else if (key == "t_end") {
      spec.t_end = positive_number(value, "t_end");
    } else if (key == "dt") {
      spec.dt = positive_number(value, "dt");
    } else if (key == "y") {
      // The bounds make_zgb and make_ising enforce: y = 0 or 1 leaves one
      // adsorption rate zero.
      spec.y = finite_number(value, "y");
      if (!(spec.y > 0 && spec.y < 1)) reject("y must lie in (0, 1)");
    } else if (key == "beta") {
      spec.beta = finite_number(value, "beta");
      if (spec.beta < 0) reject("beta must be non-negative");
    } else if (key == "hop") {
      spec.hop = positive_number(value, "hop");
    } else if (key == "coverage0") {
      spec.coverage0 = finite_number(value, "coverage0");
      if (spec.coverage0 < 0 || spec.coverage0 > 1) {
        reject("coverage0 must be within [0, 1]");
      }
    } else if (key == "L") {
      const std::uint64_t l = non_negative_integer(value, "L");
      if (l == 0 || l > 1u << 20) reject("L must be 1..1048576");
      spec.l_trials = static_cast<std::uint32_t>(l);
    } else if (key == "threads") {
      const std::uint64_t t = non_negative_integer(value, "threads");
      if (t == 0 || t > ThreadPool::kMaxThreads) {
        reject("threads must be 1.." + std::to_string(ThreadPool::kMaxThreads));
      }
      spec.threads = static_cast<unsigned>(t);
    } else if (key == "fast_path") {
      // Retired knob (the PNDCA family has one trial path). Still parsed
      // and type-checked so job.json files written before its removal stay
      // recoverable; the value is ignored.
      (void)boolean(value, "fast_path");
    } else if (key == "checkpoint_every") {
      spec.checkpoint_every = finite_number(value, "checkpoint_every");
      if (spec.checkpoint_every < 0) {
        reject("checkpoint_every must be non-negative");
      }
    } else if (key == "heatmap") {
      spec.heatmap = boolean(value, "heatmap");
    } else if (key == "heatmap_every") {
      spec.heatmap_every = non_negative_integer(value, "heatmap_every");
    } else if (key == "drift_record") {
      spec.drift_record = boolean(value, "drift_record");
    } else if (key == "trace") {
      spec.trace = boolean(value, "trace");
    } else if (key == "failpoints") {
      spec.failpoints = string_value(value, "failpoints");
      if (spec.failpoints.size() > 4096) reject("failpoints spec too long");
      const std::string bad = fail::validate(spec.failpoints);
      if (!bad.empty()) reject(bad);
    } else {
      reject("unknown member \"" + key + '"');
    }
  }

  if (!valid_tenant(spec.tenant)) {
    reject("tenant must match [A-Za-z0-9_.-]{1,64}");
  }
  if (spec.model.empty() == spec.model_text.empty()) {
    reject("exactly one of model or model_text is required");
  }
  if (!spec.model.empty() && !one_of(kModels, spec.model)) {
    reject("unknown model \"" + spec.model +
           "\" (expected zgb, pt100, diffusion, single-file, or ising)");
  }
  const std::optional<Algorithm> algorithm = algorithm_from_key(spec.algorithm);
  if (!algorithm) {
    reject("unknown algorithm \"" + spec.algorithm +
           "\" (expected rsm, vssm, frm, ndca, pndca, lpndca, tpndca, "
           "or parallel)");
  }
  if (spec.threads > 1 && !has_threaded_path(*algorithm)) {
    reject("threads " + std::to_string(spec.threads) + ": algorithm " + spec.algorithm +
           " has no threaded path (pndca has)");
  }
  if (spec.heatmap_every > 0 && !spec.heatmap) {
    reject("heatmap_every requires heatmap: true");
  }
  if (!sample_grid_fits(spec.t_end, spec.dt)) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "t_end %g with dt %g samples more than %.0f rows (t_end / dt + 1)",
                  spec.t_end, spec.dt, kMaxSampleRows);
    reject(msg);
  }
  return spec;
}

std::string JobSpec::to_json() const {
  obs::json::Writer w;
  w.begin_object();
  w.key("tenant"), w.string(tenant);
  w.key("priority"), w.i64(priority);
  w.key("retries"), w.u64(retries);
  if (!model.empty()) w.key("model"), w.string(model);
  if (!model_text.empty()) w.key("model_text"), w.string(model_text);
  w.key("algorithm"), w.string(algorithm);
  w.key("width"), w.i64(width);
  w.key("height"), w.i64(height);
  w.key("seed"), w.u64(seed);
  w.key("t_end"), w.number(t_end);
  w.key("dt"), w.number(dt);
  w.key("y"), w.number(y);
  w.key("beta"), w.number(beta);
  w.key("hop"), w.number(hop);
  w.key("coverage0"), w.number(coverage0);
  w.key("L"), w.u64(l_trials);
  w.key("threads"), w.u64(threads);
  w.key("checkpoint_every"), w.number(checkpoint_every);
  w.key("heatmap"), w.boolean(heatmap);
  w.key("heatmap_every"), w.u64(heatmap_every);
  w.key("drift_record"), w.boolean(drift_record);
  w.key("trace"), w.boolean(trace);
  if (!failpoints.empty()) w.key("failpoints"), w.string(failpoints);
  w.end_object();
  return std::move(w).str();
}

std::vector<std::string> JobSpec::to_argv(const std::string& runner,
                                          const std::string& dir,
                                          bool resume) const {
  std::vector<std::string> argv;
  argv.push_back(runner);
  auto flag = [&](const char* name, std::string value) {
    argv.emplace_back(name);
    argv.push_back(std::move(value));
  };
  if (!model_text.empty()) {
    flag("--model-file", dir + "/" + kJobModelFile);
  } else {
    flag("--model", model);
  }
  flag("--algorithm", algorithm);
  flag("--size", std::to_string(width) + "x" + std::to_string(height));
  flag("--seed", std::to_string(seed));
  flag("--t-end", format_double(t_end));
  flag("--dt", format_double(dt));
  flag("--y", format_double(y));
  flag("--beta", format_double(beta));
  flag("--hop", format_double(hop));
  if (coverage0 > 0) flag("--coverage0", format_double(coverage0));
  flag("--L", std::to_string(l_trials));
  flag("--threads", std::to_string(threads));
  flag("--checkpoint", dir + "/" + kJobCheckpoint);
  if (checkpoint_every > 0) {
    flag("--checkpoint-every", format_double(checkpoint_every));
  }
  if (resume) flag("--resume", dir + "/" + kJobCheckpoint);
  flag("--csv", dir + "/" + kJobCsv);
  flag("--metrics", dir + "/" + kJobReport);
  flag("--metrics-every", "1");
  if (heatmap) {
    flag("--heatmap", dir + "/" + kJobHeatmapPrefix);
    if (heatmap_every > 0) {
      flag("--heatmap-every", std::to_string(heatmap_every));
    }
  }
  if (drift_record) flag("--drift-record", dir + "/" + kJobDrift);
  if (trace) flag("--trace", dir + "/" + kJobTrace);
  // Cross-process trace correlation: the job-directory basename ("job-<id>")
  // is the trace id the worker stamps into its run report and trace footer,
  // which is what lets `casurf_report --merge-traces` label each worker's
  // lanes. Passed as a flag (not env): the exec happens on the
  // async-signal-safe path between fork and execv, where setenv is off
  // limits.
  const std::size_t slash = dir.find_last_of('/');
  flag("--trace-id", slash == std::string::npos ? dir : dir.substr(slash + 1));
  if (!failpoints.empty()) flag("--failpoints", failpoints);
  argv.emplace_back("--quiet");
  return argv;
}

}  // namespace casurf::serve
