#include "ledger.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

extern char** environ;

namespace ledger {

namespace json = casurf::obs::json;

// --- Workloads and configurations -----------------------------------------

// Horizons are a quarter of the ones the ROADMAP quotes (ZGB t = 20, Pt(100)
// t = 1, diffusion t = 100): each launch then takes 0.3-1.2 s at 500x500,
// so a 30 s run holds about ten repetitions of every configuration and the
// medians stay steady on a shared 4-core host. The sampling steps are powers
// of two apart from diffusion's 1.25, so k * dt lands exactly on t_end.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"zgb-500",
       "ZGB y=0.45 at ~3% acceptance: the serial per-trial time draw is a large share of the "
       "fast-path step, and exact VSSM is the bar to beat",
       "zgb", 0.45, 0.0, 5.0, 0.25},
      {"pt100-500",
       "Pt(100) with 39 reaction types: heavy probe plans and recheck table, and VSSM pays "
       "about 4 us per event so the CA already wins",
       "pt100", 0.0, 0.0, 0.25, 0.015625},
      {"diffusion-500",
       "write-heavy hopping at ~32% acceptance: commit and replay dominate, and the fast path "
       "loses to scalar",
       "diffusion", 0.0, 0.5, 25.0, 1.25},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int lattice_side() {
  const char* fast = std::getenv("CASURF_BENCH_FAST");
  return fast != nullptr && std::string_view(fast) == "1" ? 64 : 500;
}

const std::vector<Config>& timed_configs() {
  static const std::vector<Config> kConfigs = {
      {"vssm", {"--algorithm", "vssm"}, false},
      {"pndca", {"--algorithm", "pndca"}, false},
      {"pndca_fast", {"--algorithm", "pndca"}, true},
      {"lpndca", {"--algorithm", "lpndca", "--L", "100"}, true},
  };
  return kConfigs;
}

const Config& tpndca_config() {
  static const Config kTpndca{"tpndca", {"--algorithm", "tpndca"}, false};
  return kTpndca;
}

const Config& setup_config() {
  static const Config kSetup{"setup", {"--algorithm", "parallel", "--threads", "1"}, true};
  return kSetup;
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

}  // namespace

std::vector<std::string> run_args(const Workload& w, const Config& c, std::uint64_t seed,
                                  bool fast_flag, const std::string& csv_path) {
  const bool setup = &c == &setup_config();
  const std::string side = std::to_string(lattice_side());
  std::vector<std::string> a = {"--model", w.model, "--size", side + "x" + side};
  if (w.y > 0) a.insert(a.end(), {"--y", fmt(w.y)});
  if (w.coverage0 > 0) a.insert(a.end(), {"--coverage0", fmt(w.coverage0)});
  a.insert(a.end(), {"--t-end", fmt(setup ? kProbeTime : w.t_end), "--dt",
                     fmt(setup ? kProbeTime : w.dt), "--seed", std::to_string(seed)});
  a.insert(a.end(), c.args.begin(), c.args.end());
  if (c.fast_path && fast_flag) a.emplace_back("--fast-path");
  a.insert(a.end(), {"--csv", csv_path});
  return a;
}

// --- casurf_run outputs ----------------------------------------------------

std::optional<Summary> parse_summary(std::string_view text) {
  std::optional<Summary> found;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long trials = 0, executed = 0;
    if (std::sscanf(line.c_str(), "# %llu trials, %llu executed", &trials, &executed) == 2) {
      found = Summary{trials, executed};
    }
  }
  return found;
}

Csv parse_csv(std::string_view text) {
  Csv csv;
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line.empty()) throw std::runtime_error("CSV has no header");
  std::istringstream head(line);
  for (std::string cell; std::getline(head, cell, ',');) csv.header.push_back(cell);
  while (std::getline(in, line)) {
    std::vector<double> row;
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (cell.empty() || *end != '\0') {
        throw std::runtime_error("CSV cell is not a number: '" + cell + "'");
      }
      row.push_back(v);
    }
    if (row.size() != csv.header.size()) {
      throw std::runtime_error("CSV row " + std::to_string(csv.rows.size() + 1) + " has " +
                               std::to_string(row.size()) + " cells, header has " +
                               std::to_string(csv.header.size()));
    }
    csv.rows.push_back(std::move(row));
  }
  return csv;
}

std::string check_rows(const Csv& csv, double t_end, double dt) {
  const auto want = static_cast<std::size_t>(std::llround(t_end / dt)) + 1;
  if (csv.rows.size() == want) return {};
  return "CSV has " + std::to_string(csv.rows.size()) + " rows, want " + std::to_string(want);
}

std::string check_coverage_sums(const Csv& csv) {
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    double sum = 0, magnitude = 0;
    for (std::size_t c = 1; c < csv.rows[r].size(); ++c) {
      sum += csv.rows[r][c];
      magnitude += std::fabs(csv.rows[r][c]);
    }
    // A value printed with 6 significant digits is off by at most 5e-6 of itself.
    if (std::fabs(sum - 1.0) > 1e-9 + 5e-6 * magnitude) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "CSV row %zu coverages sum to %.12g", r + 1, sum);
      return buf;
    }
  }
  return {};
}

std::optional<Csv> check_csv(Ops& ops, const std::string& what, std::string_view text,
                             double t_end, double dt) {
  Csv csv;
  try {
    csv = parse_csv(text);
  } catch (const std::exception& e) {
    ops.check(false, what + ": " + e.what());
    return std::nullopt;
  }
  const std::string rows = check_rows(csv, t_end, dt);
  ops.check(rows.empty(), what + ": " + rows);
  const std::string sums = check_coverage_sums(csv);
  ops.check(sums.empty(), what + ": " + sums);
  return csv;
}

namespace {

std::vector<double> late_means(const Csv& csv, double t_end) {
  std::vector<double> sums(csv.header.size() - 1, 0.0);
  std::size_t n = 0;
  for (const std::vector<double>& row : csv.rows) {
    if (!(row[0] > t_end / 2)) continue;
    for (std::size_t c = 1; c < row.size(); ++c) sums[c - 1] += row[c];
    ++n;
  }
  if (n == 0) throw std::runtime_error("CSV has no rows with t > t_end/2");
  for (double& s : sums) s /= static_cast<double>(n);
  return sums;
}

}  // namespace

double cov_err(const Csv& run, const Csv& ref, double t_end) {
  if (run.header != ref.header) throw std::runtime_error("CSV headers differ");
  const std::vector<double> a = late_means(run, t_end);
  const std::vector<double> b = late_means(ref, t_end);
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

double rate_bias(std::uint64_t executed, std::uint64_t executed_ref) {
  if (executed_ref == 0) throw std::runtime_error("reference executed no reactions");
  return std::fabs(static_cast<double>(executed) / static_cast<double>(executed_ref) - 1.0);
}

// --- Statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<double> quartiles(std::vector<double> v) {
  const auto n = static_cast<std::ptrdiff_t>(v.size());
  if (n < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(v.begin(), v.end());
  std::vector<double> q;
  const std::ptrdiff_t m = n + 1;
  for (std::ptrdiff_t i = 1; i < 4; ++i) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    q.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4);
  }
  return q;
}

double spread(const std::vector<double>& v) {
  const std::vector<double> q = quartiles(v);
  return (q[2] - q[0]) / q[1];
}

std::optional<Tail> tail(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n <= 10) return std::nullopt;
  std::sort(v.begin(), v.end());
  const int p = static_cast<int>(std::min<std::size_t>(99, 100 * (n - 10) / n));
  const auto rank = static_cast<std::size_t>(std::ceil(static_cast<double>(n) * p / 100.0));
  return Tail{v[rank - 1], p};
}

// --- Operations and metrics ------------------------------------------------

bool Ops::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Metrics::add(std::string name, double value, std::string unit) {
  items_.push_back({std::move(name), std::move(unit), value, {}});
}

void Metrics::absent(std::string name, std::string unit, std::string reason) {
  items_.push_back({std::move(name), std::move(unit), std::nullopt, std::move(reason)});
}

const Metric* Metrics::find(std::string_view name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

void print_metrics(const char* kind, const Metrics& ms) {
  for (const Metric& m : ms.items()) {
    if (m.value) {
      std::printf("%s %s %.9g %s\n", kind, m.name.c_str(), *m.value, m.unit.c_str());
    } else {
      std::printf("%s %s absent %s (%s)\n", kind, m.name.c_str(), m.unit.c_str(),
                  m.absent_reason.c_str());
    }
  }
}

void write_metrics(json::Writer& w, const Metrics& ms, bool with_reasons) {
  w.begin_object();
  for (const Metric& m : ms.items()) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    if (m.value) {
      w.number(*m.value);
    } else {
      w.raw("null");
    }
    w.key("unit"), w.string(m.unit);
    if (with_reasons && !m.value) w.key("absent"), w.string(m.absent_reason);
    w.end_object();
  }
  w.end_object();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void write_host(json::Writer& w) {
  w.begin_object();
  w.key("cpu"), w.string(cpu_model());
  w.key("nproc"), w.u64(std::thread::hardware_concurrency());
  __builtin_cpu_init();
  w.key("avx512"), w.boolean(__builtin_cpu_supports("avx512f") != 0);
  w.key("compiler"), w.string(LEDGER_COMPILER);
  w.key("lattice_side"), w.u64(static_cast<std::uint64_t>(lattice_side()));
  w.end_object();
}

void write_run(json::Writer& w, const RunResult& r) {
  w.begin_object();
  w.key("workload"), w.string(r.workload);
  w.key("seed"), w.u64(r.seed);
  w.key("traced"), w.boolean(r.traced);
  w.key("correct"), w.boolean(r.ops.failed() == 0);
  w.key("attempted"), w.u64(r.ops.attempted());
  w.key("failed"), w.u64(r.ops.failed());
  w.key("metrics"), write_metrics(w, r.metrics, true);
  w.key("context"), write_metrics(w, r.context, true);
  w.key("samples");
  w.begin_object();
  for (const auto& [name, values] : r.samples) {
    w.key(name);
    w.begin_array();
    for (const double v : values) w.number(v);
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

/// Re-emit a parsed value (the runs already in a collection).
void emit(json::Writer& w, const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kNull: w.raw("null"); break;
    case json::Value::Kind::kBool: w.boolean(v.as_bool()); break;
    case json::Value::Kind::kNumber: w.number(v.as_number()); break;
    case json::Value::Kind::kString: w.string(v.as_string()); break;
    case json::Value::Kind::kArray:
      w.begin_array();
      for (const json::Value& item : v.items()) emit(w, item);
      w.end_array();
      break;
    case json::Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, item] : v.members()) {
        w.key(key);
        emit(w, item);
      }
      w.end_object();
      break;
  }
}

void write_text(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text << '\n';
    if (!out.flush()) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

void print_result(const RunResult& r) {
  print_metrics("metric", r.metrics);
  print_metrics("context", r.context);
  std::printf("ops_attempted %llu\nops_failed %llu\n",
              static_cast<unsigned long long>(r.ops.attempted()),
              static_cast<unsigned long long>(r.ops.failed()));
  json::Writer w;
  w.begin_object();
  w.key("correct"), w.boolean(r.ops.failed() == 0);
  w.key("attempted"), w.u64(r.ops.attempted());
  w.key("failed"), w.u64(r.ops.failed());
  w.key("metrics"), write_metrics(w, r.metrics, false);
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  std::fflush(stdout);
}

void save_result(const RunResult& r, const std::string& path, const std::string& append) {
  const auto document = [&](const json::Value* existing) {
    json::Writer w;
    w.begin_object();
    w.key("schema"), w.string("casurf-ledger/1");
    w.key("host");
    if (existing != nullptr) {
      emit(w, existing->at("host"));
    } else {
      write_host(w);
    }
    w.key("runs");
    w.begin_array();
    if (existing != nullptr) {
      for (const json::Value& run : existing->at("runs").items()) emit(w, run);
    }
    write_run(w, r);
    w.end_array();
    w.end_object();
    return std::move(w).str();
  };
  write_text(path, document(nullptr));
  if (append.empty()) return;
  if (std::filesystem::exists(append)) {
    const json::Value existing = json::Value::parse(read_file(append));
    if (existing.string_or("schema", "") != "casurf-ledger/1") {
      throw std::runtime_error(append + " is not a casurf-ledger/1 document");
    }
    write_text(append, document(&existing));
  } else {
    write_text(append, document(nullptr));
  }
}

// --- Processes -----------------------------------------------------------------

namespace {

/// The running launch, so a signal that ends the ledger ends it too.
volatile std::sig_atomic_t g_child = 0;

extern "C" void stop_child(int sig) {
  const pid_t child = g_child;
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  std::_Exit(128 + sig);
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Launch launch(const std::vector<std::string>& argv, const std::string& stdout_path) {
  static const bool handlers_installed = [] {
    struct sigaction sa {};
    sa.sa_handler = stop_child;
    sigemptyset(&sa.sa_mask);
    for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
    return true;
  }();
  (void)handlers_installed;
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const std::string err_path = stdout_path + ".err";

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  Launch l;
  pid_t pid = -1;
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn " + argv[0]);
  g_child = pid;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed for " + argv[0]);
  }
  g_child = 0;
  l.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  l.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  l.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  l.out = read_file(stdout_path);
  return l;
}

double calibrate() {
  constexpr std::uint64_t kSteps = 12'000'000;
  std::vector<std::uint8_t> sites(250'000, 0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double logs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint8_t& site = sites[(x >> 11) % sites.size()];
    site = static_cast<std::uint8_t>(site + (x & 3));
    if ((i & 15) == 0) logs += std::log(static_cast<double>((x >> 12) | 1));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // Use the loop's results, so the compiler keeps the loop.
  if (logs + sites[x % sites.size()] < 0) throw std::logic_error("calibration kernel");
  return seconds;
}

bool help_lists_fast_path(const std::string& exe, const std::string& work) {
  const std::string out = work + "/help.out";
  const Launch l = launch({exe, "--help"}, out);
  return (l.out + read_file(out + ".err")).find("--fast-path") != std::string::npos;
}

// --- Comparison ------------------------------------------------------------------

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kImproved: return "improved";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

Verdict compare_metric(const std::vector<double>& old, const std::vector<double>& neu,
                       double bound, bool lower_is_better) {
  if (old.empty() || neu.empty()) return Verdict::kUnresolved;
  // Positive gain = the change is better.
  const auto gain = [&](double from, double to) { return lower_is_better ? from - to : to - from; };
  const double m_old = median(old);
  const double m_new = median(neu);
  const double old_iqr = old.size() >= 2 ? spread(old) * m_old : NAN;

  const std::size_t pairs = std::min(old.size(), neu.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) wins += gain(old[i], neu[i]) > 0 ? 1 : 0;
  if (pairs >= 10 && wins * 10 >= pairs * 9 && gain(m_old, m_new) > old_iqr) {
    return Verdict::kImproved;
  }

  bool all_better = true;
  for (const double o : old) {
    for (const double n : neu) all_better = all_better && gain(o, n) > 0;
  }
  const bool too_noisy = !(old.size() >= 2 && spread(old) <= bound);
  if (too_noisy && !all_better) return Verdict::kUnresolved;
  if (-gain(m_old, m_new) > bound * std::fabs(m_old)) return Verdict::kRegressed;
  return Verdict::kUnchanged;
}

int run_compare(const std::string& old_path, const std::string& new_path,
                const std::string& benchmark_json) {
  const json::Value bench = json::Value::parse(read_file(benchmark_json));
  const json::Value old_doc = json::Value::parse(read_file(old_path));
  const json::Value new_doc = json::Value::parse(read_file(new_path));

  // Values of one end-to-end metric, per workload, in run order.
  const auto values = [](const json::Value& doc, const std::string& workload,
                         const std::string& metric) {
    std::vector<double> out;
    for (const json::Value& run : doc.at("runs").items()) {
      if (run.at("traced").as_bool() || run.at("workload").as_string() != workload) continue;
      const json::Value* m = run.at("metrics").find(metric);
      if (m != nullptr && m->at("value").is_number()) out.push_back(m->at("value").as_number());
    }
    return out;
  };

  std::printf("%-20s %-14s %4s %12s %12s %8s %7s %6s  %s\n", "metric", "workload", "n",
              "old_median", "new_median", "delta", "spread", "bound", "verdict");
  int regressions = 0;
  for (const json::Value& m : bench.at("end_to_end").items()) {
    const std::string name = m.at("name").as_string();
    const double bound = m.at("bound").as_number();
    const bool lower = m.at("better").as_string() == "lower";
    for (const Workload& w : workloads()) {
      const std::vector<double> a = values(old_doc, w.name, name);
      const std::vector<double> b = values(new_doc, w.name, name);
      if (a.empty() && b.empty()) continue;
      const Verdict v = compare_metric(a, b, bound, lower);
      regressions += v == Verdict::kRegressed ? 1 : 0;
      const double ma = a.empty() ? NAN : median(a);
      const double mb = b.empty() ? NAN : median(b);
      const double sa = a.size() >= 2 ? spread(a) : NAN;
      std::printf("%-20s %-14s %4zu %12.6g %12.6g %7.2f%% %6.2f%% %5.0f%%  %s\n",
                  name.c_str(), w.name.c_str(), std::min(a.size(), b.size()), ma, mb,
                  100 * (mb / ma - 1), 100 * sa, 100 * bound, verdict_name(v));
    }
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace ledger
