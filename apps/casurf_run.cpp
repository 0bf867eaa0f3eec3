// casurf_run — command-line driver for the library: pick a bundled model
// (or load one from a .model file), pick an algorithm, run, and dump
// coverage series / snapshots / images. Long runs can checkpoint
// periodically, resume bit-identically after a crash, and run under a
// built-in supervisor that restarts a crashed or hung worker from the
// latest good checkpoint (docs/ROBUSTNESS.md).
//
//   casurf_run --model zgb --y 0.45 --algorithm pndca --size 128x128 --t-end 50
//   casurf_run --model zgb --t-end 50 --dt 1 --csv coverage.csv --ppm final.ppm
//
//   casurf_run --model-file my.model --fill "*" --algorithm rsm --t-end 10
//
//   casurf_run --model zgb --t-end 100 --checkpoint run.ck --checkpoint-every 5
//   casurf_run --model zgb --t-end 100 --checkpoint run.ck --resume run.ck
//   casurf_run --model zgb --t-end 100 --checkpoint run.ck --supervise=5
//
// Exit codes (docs/ROBUSTNESS.md, src/util/exit_codes.hpp):
//   0    run completed
//   1    runtime error (unreadable input files, simulation failure)
//   2    usage error (bad flags, bad --failpoints spec, a model or initial
//        configuration that can never run); never retried
//   3    --resume: neither PATH nor PATH.bak could be restored
//   4    --supervise: retry budget exhausted
//   128+N  ended by signal N after a graceful shutdown (130 = SIGINT,
//          143 = SIGTERM)

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/spatial.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/conflict.hpp"
#include "rng/counter_rng.hpp"
#include "model/parser.hpp"
#include "serve/spawn.hpp"
#include "models/diffusion.hpp"
#include "models/ising.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "stats/coverage.hpp"
#include "stats/csv.hpp"
#include "util/exit_codes.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

using namespace casurf;

namespace {

struct Options {
  std::string argv0 = "casurf_run";
  std::string model = "zgb";
  std::string model_file;
  std::string algorithm = "rsm";
  std::int32_t width = 100, height = 100;
  std::uint64_t seed = 1;
  double t_end = 20.0;
  double dt = 1.0;
  double y = 0.45;       // ZGB CO fraction
  double beta = 0.5;     // Ising J/kT
  double hop = 1.0;      // diffusion rate
  double coverage0 = 0;  // initial particle coverage for diffusion/ising
  std::uint32_t l_trials = 1;
  unsigned threads = 1;
  std::string fill;      // species name to fill the lattice with
  std::string csv, ppm, snapshot_out, snapshot_in;
  std::string checkpoint;       // periodic checkpoint target
  double checkpoint_every = 0;  // 0 = every sampling interval
  std::string resume;           // checkpoint to resume from
  std::uint64_t audit_every = 0;  // audit each N samples (0 = off)
  AuditPolicy audit_policy = AuditPolicy::kAbort;
  std::string metrics;            // JSON run-report target ("" = metrics off)
  std::uint64_t metrics_every = 0;  // refresh report each N samples (0 = at end)
  std::string trace;              // Chrome-trace JSON target ("" = tracing off)
  std::uint64_t trace_buffer = obs::Tracer::kDefaultCapacity;  // events per ring
  std::string trace_id;           // correlation id (flag or CASURF_TRACE_ID)
  std::string drift_record;  // write a drift reference profile here
  std::string drift_ref;     // compare online against this profile
  double drift_window = 0;   // profile window width (0 = 10 * dt)
  bool drift_corr = false;   // include pair correlations in the profile
  std::uint64_t drift_corr_rmax = 8;  // decay-length truncation radius
  bool drift_corr_rmax_set = false;
  std::string heatmap;       // spatial-artifact prefix ("" = off)
  std::uint64_t heatmap_every = 0;  // refresh each N samples (0 = at end)
  std::string failpoints;  // fault-injection spec (flag or CASURF_FAILPOINTS)
  bool supervise = false;             // run under the restarting supervisor
  std::uint64_t supervise_retries = 3;  // restarts before giving up
  double watchdog = 30.0;  // seconds without a heartbeat before SIGKILL
  bool watchdog_set = false;
  bool quiet = false;
  log::Level log_level = log::threshold();  // structured-log threshold
  std::string log_file;                     // "" = stderr
  bool log_flags = false;  // explicit --log-* given (env alone stays soft)
  // Internal (not a flag): a supervised restart may fall back to a clean
  // start when both checkpoints are unusable, where an explicit --resume
  // must fail loudly instead (exit 3).
  bool resume_clean_ok = false;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --model NAME        zgb | pt100 | diffusion | single-file | ising\n"
               "  --model-file PATH   parse a .model description instead\n"
               "  --algorithm NAME    rsm | vssm | frm | ndca | pndca | lpndca |\n"
               "                      tpndca | parallel (the same as pndca)\n"
               "  --size WxH          lattice size (default 100x100)\n"
               "  --t-end T           simulated end time (default 20)\n"
               "  --dt T              sampling interval (default 1)\n"
               "  --seed S            RNG seed (default 1)\n"
               "  --y Y               ZGB CO fraction (default 0.45)\n"
               "  --beta B            Ising J/kT (default 0.5)\n"
               "  --hop R             diffusion hop rate (default 1)\n"
               "  --coverage0 C       initial particle coverage in [0, 1]\n"
               "                      (diffusion/ising; default 0)\n"
               "  --L N               L-PNDCA trials per batch (default 1)\n"
               "  --threads N         threads of a pndca sweep (default 1)\n"
               "  --fast-path         accepted and ignored (one trial path)\n"
               "  --fill NAME         species to fill the lattice with\n"
               "  --load PATH         start from a snapshot (species matched by name)\n"
               "  --csv PATH          write the coverage time series\n"
               "  --ppm PATH          write the final state as a PPM image\n"
               "  --snapshot PATH     write the final state as a snapshot\n"
               "  --checkpoint PATH   periodically save a crash-safe checkpoint;\n"
               "                      the previous one is kept as PATH.bak\n"
               "  --checkpoint-every T  simulated time between checkpoints\n"
               "                      (default: the sampling interval)\n"
               "  --resume PATH       restore state from a checkpoint and continue;\n"
               "                      falls back to PATH.bak if PATH is corrupt\n"
               "  --supervise[=N]     run the simulation in a monitored worker\n"
               "                      process; on a crash or hang, restart it from\n"
               "                      the latest good checkpoint, up to N times\n"
               "                      (default 3). Requires --checkpoint.\n"
               "  --watchdog T        with --supervise: kill and restart a worker\n"
               "                      that posts no heartbeat for T wall seconds\n"
               "                      (default 30; 0 disables the watchdog)\n"
               "  --log-level L       structured JSON-lines log threshold:\n"
               "                      debug|info|warn|error|off (default warn;\n"
               "                      the CASURF_LOG env var is the default)\n"
               "  --log-file PATH     append the structured log to PATH\n"
               "                      (default stderr)\n"
               "  --failpoints SPEC   arm deterministic fault injection, e.g.\n"
               "                      'io/checkpoint/corrupt=hit@2,run/kill=prob@0.1'\n"
               "                      (docs/ROBUSTNESS.md lists the names; the\n"
               "                      CASURF_FAILPOINTS env var is the default)\n"
               "  --audit-every N     verify derived state every N samples\n"
               "  --audit-policy P    abort (default) | repair\n"
               "  --metrics PATH      record phase timers/counters and write a\n"
               "                      JSON run-report (docs/OBSERVABILITY.md)\n"
               "  --metrics-every N   atomically refresh the report every N\n"
               "                      samples (default: only at the end)\n"
               "  --trace PATH        record per-thread phase spans and write a\n"
               "                      Chrome-trace JSON (load in Perfetto)\n"
               "  --trace-buffer N    trace ring capacity in events per thread, up\n"
               "                      to %zu (default %zu; oldest events drop on\n"
               "                      wrap)\n"
               "  --trace-id STR      correlation id stamped into the trace\n"
               "                      footer and the run report, so traces of\n"
               "                      many processes can be merged and labeled\n"
               "                      (casurf_report --merge-traces; the\n"
               "                      CASURF_TRACE_ID env var is the default)\n"
               "  --drift-record PATH run as a reference: write a windowed\n"
               "                      coverage/rate profile (casurf-drift-profile/1)\n"
               "  --drift-window T    profile window width in simulated time\n"
               "                      (with --drift-record; default 10*dt)\n"
               "  --drift-ref PATH    compare this run online against a recorded\n"
               "                      profile; alarms go to stdout + the report\n"
               "  --drift-corr        with --drift-record: add windowed pair\n"
               "                      correlations g_ab and axial decay lengths\n"
               "                      to the profile (a --drift-ref monitor picks\n"
               "                      them up from the reference automatically)\n"
               "  --drift-corr-rmax N decay-length truncation radius in sites\n"
               "                      (with --drift-corr; default 8)\n"
               "  --heatmap PREFIX    write spatial activity artifacts at the end:\n"
               "                      PREFIX.json (casurf-heatmap/1) plus\n"
               "                      PREFIX.{attempts,fires,occupancy}.ppm images\n"
               "  --heatmap-every N   also refresh the artifacts every N samples\n"
               "  --quiet             suppress the progress table\n",
               argv0, obs::Tracer::kMaxCapacity, obs::Tracer::kDefaultCapacity);
  std::exit(error ? exit_code::kUsage : 0);
}

/// strtod with the full error protocol: no partial parses ("5x" is an
/// error, atof would read 5), no empty input, no overflow, and no inf or
/// nan, which strtod accepts but no flag can use.
double parse_double(const char* flag, const char* value, const char* argv0) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    usage(argv0,
          (std::string(flag) + " expects a finite number, got '" + value + "'").c_str());
  }
  return v;
}

std::uint64_t parse_u64(const char* flag, const char* value, const char* argv0) {
  // strtoull silently wraps negatives ("-1" parses as 2^64-1); reject them.
  const char* p = value;
  while (*p == ' ' || *p == '\t') ++p;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || *p == '-') {
    usage(argv0, (std::string(flag) + " expects a non-negative integer, got '" +
                  value + "'")
                     .c_str());
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.argv0 = argv[0];
  // The env var is the default; an explicit --failpoints overrides it (it
  // is parsed later). Lets a supervisor or CI arm faults without touching
  // the command line under test.
  if (const char* env = std::getenv("CASURF_FAILPOINTS")) opt.failpoints = env;
  // Same env-as-default pattern for the trace correlation id: the serve
  // daemon (or any orchestrator) can label workers without owning argv.
  if (const char* env = std::getenv("CASURF_TRACE_ID")) opt.trace_id = env;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], "missing value for flag");
    return argv[++i];
  };
  const auto num = [&](int& i, const char* flag) {
    return parse_double(flag, need_value(i), argv[0]);
  };
  const auto integer = [&](int& i, const char* flag) {
    return parse_u64(flag, need_value(i), argv[0]);
  };
  // For integers bound for a narrower type: a value it cannot hold is a
  // usage error naming the flag and its range, never a silent truncation.
  const auto in_range = [&](const char* flag, std::uint64_t v, std::uint64_t max) {
    if (v < 1 || v > max) {
      usage(argv[0], (std::string(flag) + " must be in 1.." + std::to_string(max) +
                      ", got " + std::to_string(v))
                         .c_str());
    }
    return v;
  };
  constexpr std::uint64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(argv[0]);
    else if (flag == "--model") opt.model = need_value(i);
    else if (flag == "--model-file") opt.model_file = need_value(i);
    else if (flag == "--algorithm") opt.algorithm = need_value(i);
    else if (flag == "--size") {
      const std::string v = need_value(i);
      const std::size_t x = v.find('x');
      if (x == std::string::npos) usage(argv[0], "--size expects WxH with positive dimensions");
      const auto side = [&](const std::string& digits) {
        return static_cast<std::int32_t>(
            in_range("--size sides", parse_u64("--size", digits.c_str(), argv[0]), kInt32Max));
      };
      opt.width = side(v.substr(0, x));
      opt.height = side(v.substr(x + 1));
      try {
        (void)Lattice(opt.width, opt.height);
      } catch (const std::invalid_argument& e) {
        usage(argv[0], ("--size: " + std::string(e.what())).c_str());
      }
    }
    else if (flag == "--t-end") opt.t_end = num(i, "--t-end");
    else if (flag == "--dt") opt.dt = num(i, "--dt");
    else if (flag == "--seed") opt.seed = integer(i, "--seed");
    else if (flag == "--y") opt.y = num(i, "--y");
    else if (flag == "--beta") opt.beta = num(i, "--beta");
    else if (flag == "--hop") opt.hop = num(i, "--hop");
    else if (flag == "--coverage0") opt.coverage0 = num(i, "--coverage0");
    else if (flag == "--L") {
      opt.l_trials = static_cast<std::uint32_t>(
          in_range("--L", integer(i, "--L"), std::numeric_limits<std::uint32_t>::max()));
    }
    else if (flag == "--threads") {
      opt.threads = static_cast<unsigned>(
          in_range("--threads", integer(i, "--threads"), ThreadPool::kMaxThreads));
    }
    else if (flag == "--fast-path") continue;  // ignored; bench/ledger still passes it
    else if (flag == "--fill") opt.fill = need_value(i);
    else if (flag == "--load") opt.snapshot_in = need_value(i);
    else if (flag == "--csv") opt.csv = need_value(i);
    else if (flag == "--ppm") opt.ppm = need_value(i);
    else if (flag == "--snapshot") opt.snapshot_out = need_value(i);
    else if (flag == "--checkpoint") opt.checkpoint = need_value(i);
    else if (flag == "--checkpoint-every") opt.checkpoint_every = num(i, "--checkpoint-every");
    else if (flag == "--resume") opt.resume = need_value(i);
    else if (flag == "--supervise") opt.supervise = true;
    else if (flag.rfind("--supervise=", 0) == 0) {
      opt.supervise = true;
      opt.supervise_retries = parse_u64(
          "--supervise", std::string(flag.substr(12)).c_str(), argv[0]);
    }
    else if (flag == "--watchdog") {
      opt.watchdog = num(i, "--watchdog");
      opt.watchdog_set = true;
    }
    else if (flag == "--failpoints") opt.failpoints = need_value(i);
    else if (flag == "--audit-every") opt.audit_every = integer(i, "--audit-every");
    else if (flag == "--audit-policy") {
      const std::string_view v = need_value(i);
      if (v == "abort") opt.audit_policy = AuditPolicy::kAbort;
      else if (v == "repair") opt.audit_policy = AuditPolicy::kRepair;
      else usage(argv[0], "--audit-policy expects 'abort' or 'repair'");
    }
    else if (flag == "--metrics") opt.metrics = need_value(i);
    else if (flag == "--metrics-every") opt.metrics_every = integer(i, "--metrics-every");
    else if (flag == "--trace") opt.trace = need_value(i);
    else if (flag == "--trace-buffer") {
      opt.trace_buffer =
          in_range("--trace-buffer", integer(i, "--trace-buffer"), obs::Tracer::kMaxCapacity);
    }
    else if (flag == "--trace-id") opt.trace_id = need_value(i);
    else if (flag == "--drift-record") opt.drift_record = need_value(i);
    else if (flag == "--drift-ref") opt.drift_ref = need_value(i);
    else if (flag == "--drift-window") opt.drift_window = num(i, "--drift-window");
    else if (flag == "--drift-corr") opt.drift_corr = true;
    else if (flag == "--drift-corr-rmax") {
      opt.drift_corr_rmax =
          in_range("--drift-corr-rmax", integer(i, "--drift-corr-rmax"), kInt32Max);
      opt.drift_corr_rmax_set = true;
    }
    else if (flag == "--heatmap") opt.heatmap = need_value(i);
    else if (flag == "--heatmap-every") opt.heatmap_every = integer(i, "--heatmap-every");
    else if (flag == "--quiet") opt.quiet = true;
    else if (flag == "--log-level") {
      if (!log::parse_level(need_value(i), opt.log_level)) {
        usage(argv[0], "--log-level expects debug|info|warn|error|off");
      }
      opt.log_flags = true;
    }
    else if (flag == "--log-file") {
      opt.log_file = need_value(i);
      opt.log_flags = true;
    }
    else usage(argv[0], ("unknown flag: " + std::string(flag)).c_str());
  }

  if (!(opt.t_end > 0)) usage(argv[0], "--t-end must be a positive number");
  if (!(opt.dt > 0)) usage(argv[0], "--dt must be a positive number");
  if (!sample_grid_fits(opt.t_end, opt.dt)) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "--t-end %g with --dt %g samples more than %.0f rows (t_end / dt + 1)",
                  opt.t_end, opt.dt, kMaxSampleRows);
    usage(argv[0], msg);
  }
  if (!(opt.coverage0 >= 0 && opt.coverage0 <= 1)) {
    usage(argv[0], "--coverage0 must lie in [0, 1]");
  }
  const std::optional<Algorithm> algorithm = algorithm_from_key(opt.algorithm);
  if (!algorithm) usage(argv[0], ("unknown algorithm: " + opt.algorithm).c_str());
  if (opt.threads > 1 && !has_threaded_path(*algorithm)) {
    usage(argv[0], ("--threads " + std::to_string(opt.threads) + ": algorithm " +
                    opt.algorithm + " has no threaded path (pndca has)")
                       .c_str());
  }
  if (opt.checkpoint_every < 0) usage(argv[0], "--checkpoint-every must be positive");
  if (opt.checkpoint_every > 0 && opt.checkpoint.empty()) {
    usage(argv[0], "--checkpoint-every requires --checkpoint PATH");
  }
  if (opt.supervise && opt.checkpoint.empty()) {
    usage(argv[0],
          "--supervise requires --checkpoint PATH (recovery restarts from "
          "the latest good checkpoint)");
  }
  if (opt.watchdog_set && !opt.supervise) {
    usage(argv[0], "--watchdog only applies with --supervise");
  }
  if (opt.watchdog < 0) usage(argv[0], "--watchdog must be non-negative");
  if (!opt.failpoints.empty()) {
    const std::string err = fail::validate(opt.failpoints);
    if (!err.empty()) usage(argv[0], ("--failpoints: " + err).c_str());
  }
  if (opt.metrics_every > 0 && opt.metrics.empty()) {
    usage(argv[0], "--metrics-every requires --metrics PATH");
  }
  if (!opt.drift_record.empty() && !opt.drift_ref.empty()) {
    usage(argv[0], "--drift-record and --drift-ref are mutually exclusive");
  }
  if (opt.drift_window != 0 && opt.drift_record.empty()) {
    usage(argv[0],
          "--drift-window only applies with --drift-record (a reference "
          "profile fixes the window width)");
  }
  if (opt.drift_window < 0) usage(argv[0], "--drift-window must be positive");
  if (opt.drift_corr && opt.drift_record.empty()) {
    usage(argv[0],
          "--drift-corr requires --drift-record (a --drift-ref monitor "
          "enables correlations from the reference profile)");
  }
  if (opt.drift_corr_rmax_set && !opt.drift_corr) {
    usage(argv[0], "--drift-corr-rmax requires --drift-corr");
  }
  if (opt.heatmap_every > 0 && opt.heatmap.empty()) {
    usage(argv[0], "--heatmap-every requires --heatmap PREFIX");
  }
  // Fail fast on output/input paths the run would only touch at the end:
  // a multi-hour run must not die on a typo after the fact.
  if (!opt.trace.empty()) {
    std::filesystem::path dir = std::filesystem::path(opt.trace).parent_path();
    if (dir.empty()) dir = ".";
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec) ||
        ::access(dir.c_str(), W_OK) != 0) {
      usage(argv[0], ("--trace directory is not writable: " + dir.string()).c_str());
    }
  }
  if (!opt.heatmap.empty()) {
    std::filesystem::path dir = std::filesystem::path(opt.heatmap).parent_path();
    if (dir.empty()) dir = ".";
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec) ||
        ::access(dir.c_str(), W_OK) != 0) {
      usage(argv[0],
            ("--heatmap directory is not writable: " + dir.string()).c_str());
    }
  }
  if (!opt.drift_ref.empty() && ::access(opt.drift_ref.c_str(), R_OK) != 0) {
    usage(argv[0],
          ("--drift-ref reference file does not exist or is unreadable: " +
           opt.drift_ref)
              .c_str());
  }
  return opt;
}

/// Scatter species `what` onto a fraction `coverage` of vacant sites,
/// deterministically from the seed.
void scatter(Configuration& cfg, Species what, double coverage, std::uint64_t seed) {
  CounterRng rng(seed, 0xc0ffee);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    if (rng.next_double() < coverage) cfg.set(s, what);
  }
}

/// App-level state stored in the checkpoint's user section: the next sample
/// time and the full coverage history, so the resumed run's CSV equals the
/// uninterrupted run's byte for byte.
std::string encode_run_state(double next, const CoverageRecorder& recorder) {
  StateWriter w;
  w.section("casurf-run");
  w.f64(next);
  recorder.save_state(w);
  return {reinterpret_cast<const char*>(w.buffer().data()), w.size()};
}

void decode_run_state(const std::string& blob, double& next,
                      CoverageRecorder& recorder) {
  StateReader r(std::span(reinterpret_cast<const std::uint8_t*>(blob.data()),
                          blob.size()));
  r.expect_section("casurf-run");
  next = r.f64();
  recorder.restore_state(r);
  r.expect_end();
}

// --- Signals and heartbeat ------------------------------------------------
// The worker's handlers only set a flag; the sample loop notices it at the
// next sample boundary and shuts down gracefully (final checkpoint, flushed
// artifacts, exit 128+sig). The supervisor installs its own forwarding
// handlers instead.

volatile std::sig_atomic_t g_signal = 0;
volatile pid_t g_child_pid = -1;

void on_worker_signal(int sig) { g_signal = sig; }

void on_supervisor_signal(int sig) {
  g_signal = sig;
  const pid_t child = g_child_pid;
  if (child > 0) ::kill(child, sig);  // async-signal-safe
}

void install_worker_handlers() {
  struct sigaction sa {};
  sa.sa_handler = on_worker_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Heartbeat pipe to the supervisor (one byte per sample); -1 when the run
/// is not supervised.
int g_heartbeat_fd = -1;

void heartbeat() {
  if (g_heartbeat_fd < 0) return;
  const char beat = 'h';
  [[maybe_unused]] const ssize_t n = ::write(g_heartbeat_fd, &beat, 1);
}

/// Rotate the previous checkpoint to PATH.bak, then atomically publish the
/// new one over PATH. The rotation hard-links PATH to a temporary sibling
/// and renames that over PATH.bak, so PATH never leaves the disk: until the
/// publish it names the previous checkpoint, as PATH.bak does. Both halves
/// degrade gracefully rather than kill a long run: a failed rotation (other
/// than "no previous checkpoint") skips this interval entirely — publishing
/// anyway would leave PATH.bak two generations behind PATH, so a corrupt
/// PATH would fall back further than one interval — and a failed write
/// retries with backoff, then carries on with the previous checkpoint still
/// at PATH. Failures are counted in the recovery log and surfaced in the
/// report.
bool write_checkpoint(const Options& opt, const Simulator& sim, double next,
                      const CoverageRecorder& recorder, obs::RecoveryLog& recovery) {
  const std::string bak = opt.checkpoint + ".bak";
  const std::string link = bak + ".tmp." + std::to_string(::getpid());
  std::remove(link.c_str());  // left by a run of the same pid that died here
  const char* failed = nullptr;
  if (::link(opt.checkpoint.c_str(), link.c_str()) != 0) {
    if (errno != ENOENT) failed = "link";
  } else if (std::rename(link.c_str(), bak.c_str()) != 0) {
    failed = "rename";
  }
  const int err = errno;
  // rename(2) keeps both names when they already name one file, as PATH
  // and PATH.bak do after a publish that failed.
  std::remove(link.c_str());
  if (failed != nullptr) {
    std::fprintf(stderr,
                 "warning: checkpoint rotation failed: %s %s -> %s: %s; "
                 "keeping the previous checkpoint, skipping this interval\n",
                 failed, opt.checkpoint.c_str(), bak.c_str(), std::strerror(err));
    ++recovery.checkpoint_rotate_failures;
    return false;
  }
  const std::string blob = encode_run_state(next, recorder);
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      io::save_checkpoint(opt.checkpoint, sim, blob);
      return true;
    } catch (const std::exception& e) {
      if (attempt >= kAttempts) {
        std::fprintf(stderr,
                     "warning: checkpoint write failed after %d attempts: %s; "
                     "continuing with the previous checkpoint (%s)\n",
                     attempt, e.what(), opt.checkpoint.c_str());
        ++recovery.checkpoint_write_failures;
        return false;
      }
      std::fprintf(stderr, "warning: checkpoint write failed: %s; retrying\n",
                   e.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(50 << (attempt - 1)));
    }
  }
}

// --- Worker ---------------------------------------------------------------

int run_once(const Options& opt, obs::RecoveryLog& recovery) {
  // Arm fault injection in this process only: under --supervise each worker
  // generation configures after the fork, so hit@N counters restart at zero
  // per attempt and every generation makes forward progress before its
  // fault fires again.
  if (!opt.failpoints.empty()) {
    fail::set_seed(opt.seed);
    const std::string err = fail::configure(opt.failpoints);
    if (!err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return exit_code::kUsage;
    }
  }
  install_worker_handlers();

  // Injected process-level faults (docs/ROBUSTNESS.md), evaluated once per
  // sample after the checkpoint write so every supervised attempt makes
  // forward progress before its fault recurs.
  static constexpr fail::Failpoint kRunKill{"run/kill"};
  static constexpr fail::Failpoint kRunSigterm{"run/sigterm"};
  static constexpr fail::Failpoint kRunStall{"run/stall"};

  // --- Build the model -----------------------------------------------
  std::optional<ReactionModel> model;
  Species fill_species = 0;
  bool building = true;  // until the first simulator stands
  try {
    if (!opt.model_file.empty()) {
      model.emplace(parse_model_file(opt.model_file));
    } else if (opt.model == "zgb") {
      model.emplace(models::make_zgb(models::ZgbParams::from_y(opt.y, 20.0)).model);
    } else if (opt.model == "pt100") {
      model.emplace(models::make_pt100().model);
    } else if (opt.model == "diffusion") {
      model.emplace(models::make_diffusion(opt.hop).model);
    } else if (opt.model == "single-file") {
      model.emplace(models::make_single_file(opt.hop).model);
      if (opt.height != 1) {
        std::fprintf(stderr, "note: single-file is one-dimensional; using %dx1\n",
                     opt.width);
      }
    } else if (opt.model == "ising") {
      model.emplace(models::make_ising(opt.beta).model);
    } else {
      usage(opt.argv0.c_str(), ("unknown model: " + opt.model).c_str());
    }

    if (!opt.fill.empty()) {
      fill_species = model->species().require(opt.fill);
    }

    const std::int32_t height = opt.model == "single-file" ? 1 : opt.height;

    // --- Initial configuration ---------------------------------------
    const auto build_config = [&]() -> Configuration {
      Configuration cfg(Lattice(opt.width, height), model->species().size(),
                        fill_species);
      if (!opt.snapshot_in.empty()) {
        const io::Snapshot snap = io::load_snapshot(opt.snapshot_in);
        if (snap.config.lattice().width() != opt.width ||
            snap.config.lattice().height() != height) {
          throw std::runtime_error("snapshot lattice is " +
                                   std::to_string(snap.config.lattice().width()) + "x" +
                                   std::to_string(snap.config.lattice().height()) +
                                   ", run is " + std::to_string(opt.width) + "x" +
                                   std::to_string(height) + " (pass a matching --size)");
        }
        // Species are matched by NAME: a snapshot written under a model
        // that orders the same species differently is re-indexed, and one
        // mentioning an unknown species is rejected with its name.
        cfg = io::remap_species(snap, model->species());
      } else if (opt.coverage0 > 0 && model->species().size() >= 2) {
        scatter(cfg, 1, opt.coverage0, opt.seed);
      }
      return cfg;
    };

    // --- Simulator -----------------------------------------------------
    SimulationOptions sim_opt;
    sim_opt.algorithm = *algorithm_from_key(opt.algorithm);  // parse_args checked it
    sim_opt.seed = opt.seed;
    sim_opt.l_trials = opt.l_trials;
    sim_opt.threads = opt.threads;
    const auto build_sim = [&] {
      return make_simulator(*model, build_config(), sim_opt);
    };
    std::unique_ptr<Simulator> sim = build_sim();
    building = false;

    // --- Resume ------------------------------------------------------
    CoverageRecorder recorder;
    double next = opt.dt;
    bool resumed = false;
    std::string restore_source;
    if (!opt.resume.empty()) {
      // A failed restore may leave the simulator partially modified, so
      // each attempt gets a freshly constructed one. After a successful
      // restore an abort-policy audit cross-checks every derived cache
      // against the raw configuration — a checkpoint can be intact
      // byte-wise (CRC passes) yet semantically inconsistent.
      const std::string bak = opt.resume + ".bak";
      std::string blob;
      bool have_blob = false;
      try {
        blob = io::restore_checkpoint(opt.resume, *sim);
        StateAuditor(AuditPolicy::kAbort).run(*sim);
        restore_source = "primary";
        have_blob = true;
      } catch (const std::exception& primary) {
        std::fprintf(stderr, "warning: %s\nwarning: falling back to %s\n",
                     primary.what(), bak.c_str());
        sim = build_sim();
        try {
          blob = io::restore_checkpoint(bak, *sim);
          StateAuditor(AuditPolicy::kAbort).run(*sim);
          restore_source = "backup";
          have_blob = true;
        } catch (const std::exception& secondary) {
          if (!opt.resume_clean_ok) {
            // Explicit --resume: starting over silently is worse than
            // stopping — fail loudly with a dedicated exit code.
            std::fprintf(stderr,
                         "error: %s\nerror: cannot restore from %s or %s\n",
                         secondary.what(), opt.resume.c_str(), bak.c_str());
            return exit_code::kRestoreFailed;
          }
          // Supervised restart: losing all progress beats losing the run.
          std::fprintf(stderr,
                       "warning: %s\nwarning: neither checkpoint is usable; "
                       "restarting from a clean state\n",
                       secondary.what());
          sim = build_sim();
          restore_source = "clean";
        }
      }
      if (have_blob) {
        decode_run_state(blob, next, recorder);
        resumed = true;
      }
    }
    // A supervised restart fills in what the supervisor could not know:
    // where the replacement actually resumed.
    if (!restore_source.empty() && !recovery.records.empty()) {
      recovery.records.back().resume_time = resumed ? sim->time() : 0.0;
      recovery.records.back().restore_source = restore_source;
    }

    // --- Metrics / tracing / drift ------------------------------------
    // Attached after any resume: a restore fallback rebuilds the
    // simulator, which would drop probe handles attached earlier.
    obs::MetricsRegistry registry;
    obs::Tracer tracer(static_cast<std::size_t>(opt.trace_buffer));
    if (!opt.trace_id.empty()) tracer.set_trace_id(opt.trace_id);
    std::optional<obs::SpatialMap> spatial_map;
    if (!opt.heatmap.empty()) spatial_map.emplace(sim->configuration().size());
    sim->attach({opt.metrics.empty() ? nullptr : &registry,
                 opt.trace.empty() ? nullptr : &tracer,
                 spatial_map ? &*spatial_map : nullptr});
    // Partition-level aggregation happens at export time only; algorithms
    // without a partition (the DMC family, plain NDCA) get a null summary.
    const auto spatial_summary = [&]() -> std::optional<obs::SpatialSummary> {
      if (!spatial_map || sim->spatial_partition() == nullptr) return std::nullopt;
      return obs::summarize(*spatial_map, *sim->spatial_partition(),
                            conflict_offsets(*model));
    };
    const auto write_heatmap = [&] {
      const std::optional<obs::SpatialSummary> ssum = spatial_summary();
      obs::write_heatmap_json(opt.heatmap + ".json", sim->configuration(),
                              model->species().names(), sim->time(),
                              &*spatial_map, ssum ? &*ssum : nullptr);
      obs::write_activity_ppm(opt.heatmap + ".attempts.ppm", *spatial_map,
                              sim->configuration().lattice(),
                              obs::ActivityChannel::kAttempts);
      obs::write_activity_ppm(opt.heatmap + ".fires.ppm", *spatial_map,
                              sim->configuration().lattice(),
                              obs::ActivityChannel::kFires);
      io::write_ppm(opt.heatmap + ".occupancy.ppm", sim->configuration());
    };
    std::optional<obs::DriftRecorder> drift_rec;
    if (!opt.drift_record.empty()) {
      drift_rec.emplace(opt.drift_window > 0 ? opt.drift_window : 10 * opt.dt,
                        obs::CorrelationOptions{
                            opt.drift_corr,
                            static_cast<std::int32_t>(opt.drift_corr_rmax)});
    }
    std::optional<obs::DriftMonitor> drift_mon;
    if (!opt.drift_ref.empty()) {
      drift_mon.emplace(obs::DriftProfile::load(opt.drift_ref));
      if (!opt.trace.empty()) drift_mon->set_trace(&tracer.ring(0));
    }
    const obs::DriftMonitor* drift_for_report =
        drift_mon.has_value() ? &*drift_mon : nullptr;
    const auto drift_sample = [&](const Simulator& s) {
      if (drift_rec) drift_rec->sample(s);
      if (drift_mon) drift_mon->sample(s);
    };
    const auto wall_start = std::chrono::steady_clock::now();
    const auto report_info = [&] {
      obs::RunInfo info;
      info.algorithm = sim->name();
      info.model = opt.model_file.empty() ? opt.model : opt.model_file;
      info.width = opt.width;
      info.height = opt.model == "single-file" ? 1 : opt.height;
      info.seed = opt.seed;
      info.t_end = opt.t_end;
      info.dt = opt.dt;
      info.threads = opt.threads;  // 1 unless the simulator is threaded PNDCA
      info.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
      info.trace_id = opt.trace_id;
      info.trace_drops = opt.trace.empty() ? 0 : tracer.total_dropped();
      return info;
    };
    const auto flush_report = [&] {
      if (opt.metrics.empty()) return;
      const std::optional<obs::SpatialSummary> ssum = spatial_summary();
      obs::write_run_report(opt.metrics, report_info(), sim.get(), &registry,
                            drift_for_report, ssum ? &*ssum : nullptr, &recovery);
    };
    const auto flush_trace = [&] {
      if (!opt.trace.empty()) tracer.write(opt.trace);
    };

    if (!opt.quiet) {
      std::printf("# %s, %zu reaction types, K = %.3f, %d x %d, seed %llu\n",
                  sim->name().c_str(), model->num_reactions(), model->total_rate(),
                  opt.width, height, static_cast<unsigned long long>(opt.seed));
      if (resumed) std::printf("# resumed at t = %.6g\n", sim->time());
      std::printf("%-10s", "time");
      for (const std::string& name : model->species().names()) {
        std::printf(" %-8s", name.c_str());
      }
      std::printf("\n");
    }

    // --- Main loop ---------------------------------------------------
    StateAuditor auditor(opt.audit_policy);
    const double ckpt_every =
        opt.checkpoint_every > 0 ? opt.checkpoint_every : opt.dt;
    double next_ckpt = sim->time() + ckpt_every;
    std::uint64_t samples = 0;

    if (!resumed) {
      recorder.sample(*sim);
      drift_sample(*sim);
    }
    heartbeat();  // setup done: start the watchdog clock from here
    // Sampling targets form the fixed grid k * dt, indexed by integer k so
    // an overshooting advance never drifts later samples off the grid (and
    // a resumed run recovers its k from the checkpointed grid time).
    auto sample_k = static_cast<std::uint64_t>(std::llround(next / opt.dt));
    while (next <= opt.t_end) {
      sim->advance_to(next);
      recorder.sample(*sim);
      drift_sample(*sim);
      heartbeat();
      if (!opt.trace.empty()) {
        tracer.ring(0).instant("run/sample", sim->time(), sample_k);
      }
      if (!opt.quiet) {
        std::printf("%-10.2f", sim->time());
        for (Species s = 0; s < model->species().size(); ++s) {
          std::printf(" %-8.4f", sim->configuration().coverage(s));
        }
        std::printf("\n");
      }
      ++sample_k;
      next = static_cast<double>(sample_k) * opt.dt;

      ++samples;
      if (opt.metrics_every > 0 && samples % opt.metrics_every == 0) {
        flush_report();
      }
      if (opt.heatmap_every > 0 && samples % opt.heatmap_every == 0) {
        write_heatmap();
      }
      if (opt.audit_every > 0 && samples % opt.audit_every == 0) {
        const AuditReport report = auditor.run(*sim);  // throws under kAbort
        if (report.repaired) {
          std::fprintf(stderr, "warning: audit repaired inconsistent state:\n%s",
                       report.to_string().c_str());
        }
      }
      if (!opt.checkpoint.empty() && sim->time() >= next_ckpt) {
        write_checkpoint(opt, *sim, next, recorder, recovery);
        next_ckpt = sim->time() + ckpt_every;
      }
      if (kRunStall.fire()) {
        std::fprintf(stderr, "injected stall at t = %.6g\n", sim->time());
        std::this_thread::sleep_for(std::chrono::seconds(3));
      }
      if (kRunKill.fire()) {
        std::fprintf(stderr, "injected SIGKILL at t = %.6g\n", sim->time());
        std::fflush(nullptr);
        ::raise(SIGKILL);
      }
      if (kRunSigterm.fire()) {
        std::fprintf(stderr, "injected SIGTERM at t = %.6g\n", sim->time());
        ::raise(SIGTERM);
      }
      if (g_signal != 0) {
        // Graceful shutdown: save where we are, flush what observability
        // state exists, and report the signal in the exit code. A later
        // --resume (or supervised relaunch) continues from this sample.
        const int sig = static_cast<int>(g_signal);
        std::fprintf(stderr,
                     "casurf_run: caught %s at t = %.6g; writing final "
                     "checkpoint and flushing artifacts\n",
                     sig == SIGINT ? "SIGINT" : "SIGTERM", sim->time());
        heartbeat();
        if (!opt.checkpoint.empty()) {
          write_checkpoint(opt, *sim, next, recorder, recovery);
        }
        flush_report();
        flush_trace();
        return 128 + sig;
      }
    }

    // A final checkpoint at t_end makes `--resume` idempotent: resuming a
    // finished run just rewrites the outputs.
    if (!opt.checkpoint.empty()) {
      write_checkpoint(opt, *sim, next, recorder, recovery);
    }

    if (drift_mon) {
      drift_mon->finish();
      std::printf("# drift: %llu windows checked vs %s reference, %zu alarms, "
                  "max z %.2f\n",
                  static_cast<unsigned long long>(drift_mon->windows_checked()),
                  drift_mon->reference().algorithm.c_str(),
                  drift_mon->alarms().size(), drift_mon->max_z());
      for (const obs::DriftAlarm& a : drift_mon->alarms()) {
        std::printf("# drift alarm: window %llu [%.6g, %.6g) %s observed %.6g "
                    "expected %.6g (z = %.2f)\n",
                    static_cast<unsigned long long>(a.window), a.t0, a.t1,
                    a.what.c_str(), a.observed, a.expected, a.z);
      }
    }
    if (drift_rec) {
      obs::DriftProfile profile = drift_rec->take_profile(
          sim->name(), opt.model_file.empty() ? opt.model : opt.model_file);
      profile.write(opt.drift_record);
      if (!opt.quiet) {
        std::printf("# drift profile: %s (%zu windows of %.6g)\n",
                    opt.drift_record.c_str(), profile.windows.size(),
                    profile.window);
      }
    }

    if (!opt.heatmap.empty()) {
      write_heatmap();
      if (!opt.quiet) {
        std::printf("# heatmap: %s.json (+ attempts/fires/occupancy PPMs)\n",
                    opt.heatmap.c_str());
      }
    }

    if (!opt.metrics.empty()) {
      flush_report();
      if (!opt.quiet) std::printf("# metrics report: %s\n", opt.metrics.c_str());
    }

    if (!opt.trace.empty()) {
      flush_trace();
      if (!opt.quiet) {
        std::printf("# trace: %s (%llu events, %llu dropped)\n", opt.trace.c_str(),
                    static_cast<unsigned long long>(tracer.total_recorded()),
                    static_cast<unsigned long long>(tracer.total_dropped()));
      }
    }

    if (!opt.quiet) {
      const SimCounters& c = sim->counters();
      std::printf("# %llu trials, %llu executed (acceptance %.2f%%)\n",
                  static_cast<unsigned long long>(c.trials),
                  static_cast<unsigned long long>(c.executed),
                  100 * c.acceptance());
      if (opt.audit_every > 0) {
        std::printf("# %llu audits, %llu found issues\n",
                    static_cast<unsigned long long>(auditor.audits_run()),
                    static_cast<unsigned long long>(auditor.audits_failed()));
      }
    }

    // --- Outputs ---------------------------------------------------------
    if (!opt.csv.empty()) {
      std::vector<std::string> names;
      std::vector<TimeSeries> series;
      for (Species s = 0; s < model->species().size(); ++s) {
        names.push_back(model->species().name(s));
        series.push_back(recorder.series(s));
      }
      stats::write_csv_series(opt.csv, names, series);
    }
    if (!opt.ppm.empty()) io::write_ppm(opt.ppm, sim->configuration());
    if (!opt.snapshot_out.empty()) {
      io::save_snapshot(opt.snapshot_out, sim->configuration(), model->species());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // While the model, the initial configuration and the simulator are
    // built, a model that does not parse or a std::logic_error (make_zgb's
    // or make_ising's invalid_argument, --fill's out_of_range, a simulator
    // that refuses the model) means the run can never start: a usage error,
    // which neither supervisor retries. I/O and snapshot failures are
    // runtime errors.
    const bool refused = dynamic_cast<const ModelParseError*>(&e) != nullptr ||
                         dynamic_cast<const std::logic_error*>(&e) != nullptr;
    return building && refused ? exit_code::kUsage : exit_code::kRuntime;
  }
  return exit_code::kOk;
}

// --- Supervisor -----------------------------------------------------------

/// Fork-based supervised execution: the simulation runs in a worker child
/// while the parent watches a heartbeat pipe. A worker that crashes (any
/// abnormal exit, an injected SIGKILL) or hangs (no heartbeat
/// for --watchdog seconds; killed) is restarted from the latest good
/// checkpoint with bounded exponential backoff, up to the retry budget.
/// SIGINT/SIGTERM are forwarded to the worker, whose graceful shutdown
/// (exit 128+sig) ends the supervised run without a restart — the contract
/// a preempting scheduler relies on. Each restart is recorded in the
/// recovery log the worker inherits through fork, so the final worker's
/// run report carries the full history.
int supervise(const Options& opt) {
  obs::RecoveryLog recovery;
  recovery.supervised = true;
  recovery.retries_allowed = opt.supervise_retries;
  const auto start = std::chrono::steady_clock::now();

  struct sigaction sa {};
  sa.sa_handler = on_supervisor_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::uint64_t restarts = 0;
  for (;;) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      std::fprintf(stderr, "error: supervisor pipe failed: %s\n",
                   std::strerror(errno));
      return exit_code::kRuntime;
    }
    // spawn_supervised closes the forwarding window: SIGINT/SIGTERM are
    // blocked across fork() and the g_child_pid store (a signal landing in
    // between would otherwise run on_supervisor_signal against a stale pid
    // and orphan the fresh worker), and a signal that had already arrived
    // before the fork is re-forwarded once the pid is published.
    const pid_t pid = serve::spawn_supervised(&g_child_pid, &g_signal, [&] {
      // Worker. No exec: the parsed options and the recovery log so far
      // come along through the fork.
      ::close(pipefd[0]);
      g_heartbeat_fd = pipefd[1];
      std::signal(SIGPIPE, SIG_IGN);  // a dead supervisor must not kill us
      Options worker = opt;
      worker.supervise = false;
      if (restarts > 0) {
        // Restart: resume from the checkpoint chain; if both generations
        // are unusable, start clean rather than give up the attempt.
        worker.resume = opt.checkpoint;
        worker.resume_clean_ok = true;
      }
      const int code = run_once(worker, recovery);
      std::fflush(nullptr);
      return code;
    });
    if (pid < 0) {
      std::fprintf(stderr, "error: supervisor fork failed: %s\n",
                   std::strerror(errno));
      return exit_code::kRuntime;
    }
    ::close(pipefd[1]);
    log::Event(log::Level::kDebug, "run.supervise", "worker_spawned")
        .i64("pid", pid)
        .u64("attempt", restarts);

    // Heartbeat watch. poll() wakes on data (worker alive), EOF (worker
    // gone), timeout (worker hung), or EINTR (signal being forwarded).
    bool watchdog_fired = false;
    const int timeout_ms =
        opt.watchdog > 0 ? static_cast<int>(opt.watchdog * 1000.0) : -1;
    for (;;) {
      struct pollfd pfd {pipefd[0], POLLIN, 0};
      const int r = ::poll(&pfd, 1, timeout_ms);
      if (r < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (r == 0) {
        std::fprintf(stderr,
                     "supervisor: no heartbeat for %.3g s; killing worker %d\n",
                     opt.watchdog, static_cast<int>(pid));
        log::Event(log::Level::kWarn, "run.supervise", "watchdog_kill")
            .i64("pid", pid)
            .f64("watchdog_s", opt.watchdog);
        watchdog_fired = true;
        ::kill(pid, SIGKILL);
        break;
      }
      if ((pfd.revents & POLLIN) != 0) {
        char buf[64];
        const ssize_t n = ::read(pipefd[0], buf, sizeof buf);
        if (n <= 0) break;  // EOF: worker exited
      } else {
        break;  // POLLHUP/POLLERR: worker exited
      }
    }
    ::close(pipefd[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
    g_child_pid = -1;

    // Classify the exit: done, not-worth-retrying, graceful, or restart.
    std::string cause;
    int detail = 0;
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      if (code == exit_code::kOk) return exit_code::kOk;
      if (code == exit_code::kUsage) return code;  // config error: retrying is pointless
      if (code == 128 + SIGINT || code == 128 + SIGTERM) {
        // The worker shut down gracefully after a forwarded (or external)
        // signal; that is an orderly preemption, not a failure.
        log::Event(log::Level::kInfo, "run.supervise", "worker_yielded")
            .i64("signal", code - 128);
        return code;
      }
      cause = "crash";
      detail = code;
    } else if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      if (watchdog_fired) {
        cause = "watchdog";
        detail = sig;
      } else if ((sig == SIGINT || sig == SIGTERM) && g_signal != 0) {
        // Forwarded signal landed before the worker's handlers were up.
        return 128 + sig;
      } else {
        cause = "signal";
        detail = sig;
      }
    } else {
      cause = "crash";
      detail = status;
    }

    ++restarts;
    if (restarts > opt.supervise_retries) {
      std::fprintf(stderr,
                   "error: supervised run still failing after %llu restarts "
                   "(last: %s %d); giving up\n",
                   static_cast<unsigned long long>(opt.supervise_retries),
                   cause.c_str(), detail);
      log::Event(log::Level::kError, "run.supervise", "retries_exhausted")
          .str("cause", cause)
          .i64("detail", detail)
          .u64("retries", opt.supervise_retries);
      return exit_code::kRetriesExhausted;
    }
    obs::RecoveryRecord record;
    record.cause = cause;
    record.detail = detail;
    record.attempt = restarts;
    record.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    // Estimate where the replacement will resume by peeking the checkpoint
    // chain. The replacement overwrites this with the actual outcome, but
    // only the final generation's log survives into the report —
    // intermediate generations die with their copy — so the estimate is
    // what the report carries for every restart but the last.
    record.restore_source = "clean";
    try {
      record.resume_time = io::peek_checkpoint(opt.checkpoint).time;
      record.restore_source = "primary";
    } catch (const std::exception&) {
      try {
        record.resume_time = io::peek_checkpoint(opt.checkpoint + ".bak").time;
        record.restore_source = "backup";
      } catch (const std::exception&) {
      }
    }
    recovery.records.push_back(record);
    const double backoff =
        std::min(2.0, 0.1 * std::ldexp(1.0, static_cast<int>(restarts) - 1));
    std::fprintf(stderr,
                 "supervisor: worker died (%s %d); restarting from %s "
                 "(attempt %llu of %llu) after %.2g s\n",
                 cause.c_str(), detail, opt.checkpoint.c_str(),
                 static_cast<unsigned long long>(restarts),
                 static_cast<unsigned long long>(opt.supervise_retries), backoff);
    log::Event(log::Level::kWarn, "run.supervise", "worker_restart")
        .str("cause", cause)
        .i64("detail", detail)
        .u64("attempt", restarts)
        .str("restore_source", record.restore_source)
        .f64("resume_time", record.resume_time)
        .f64("backoff_s", backoff);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Environment first so explicit --log-* flags win; a bad CASURF_LOG is a
  // usage error like a bad CASURF_FAILPOINTS.
  if (const std::string err = log::configure_from_env(); !err.empty()) {
    usage(argv[0], err.c_str());
  }
  const Options opt = parse_args(argc, argv);
  if (opt.log_flags) {
    if (const std::string err = log::configure(opt.log_level, opt.log_file);
        !err.empty()) {
      usage(argv[0], err.c_str());
    }
  }
  if (opt.supervise) return supervise(opt);
  obs::RecoveryLog recovery;  // unsupervised: carries degradation counters
  return run_once(opt, recovery);
}
