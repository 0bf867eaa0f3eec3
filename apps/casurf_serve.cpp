// casurf_serve — long-running job daemon for surface-reaction simulations.
//
// Accepts model-DSL + run-spec jobs over a loopback HTTP API and
// multiplexes many concurrent simulations, each executed as its own
// supervised casurf_run worker process (docs/SERVING.md documents the API
// and lifecycle; docs/ROBUSTNESS.md the recovery machinery underneath).
//
// Exit codes follow the casurf_run taxonomy:
//   0      clean shutdown (SIGINT/SIGTERM drain completed)
//   1      runtime failure (could not bind, data dir unwritable, ...)
//   2      usage error
//   128+N  reserved for future non-drain signal deaths

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/daemon.hpp"
#include "util/log.hpp"

namespace {

using casurf::serve::Daemon;
using casurf::serve::DaemonOptions;

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "%s: %s\n\n", argv0, error);
  std::fprintf(
      stderr,
      "usage: %s --runner PATH --data-dir DIR [options]\n"
      "\n"
      "  --runner PATH       casurf_run binary workers exec (required)\n"
      "  --data-dir DIR      job directories live here (required; a restart\n"
      "                      over the same DIR requeues unfinished jobs)\n"
      "  --port N            HTTP listen port (default 0 = ephemeral)\n"
      "  --port-file PATH    write the bound port to PATH once listening\n"
      "  --slots N           concurrently running jobs (default 2)\n"
      "  --queue-cap N       queued jobs before 429 (default 64)\n"
      "  --tenant-cap N      live jobs per tenant before 403 (default 16)\n"
      "  --max-threads N     per-job worker-thread clamp (default 4)\n"
      "  --worker-log-cap N  bytes before a job's worker.log rotates to .1\n"
      "                      (default 1 MiB; 0 = unbounded)\n"
      "  --log-level L       structured-log threshold: debug|info|warn|error\n"
      "                      |off (default warn; env CASURF_LOG also applies)\n"
      "  --log-file PATH     append JSON-lines log to PATH (default stderr)\n"
      "\n"
      "API summary (docs/SERVING.md):\n"
      "  POST /jobs            submit a job (JSON spec)\n"
      "  GET  /jobs            list jobs\n"
      "  GET  /jobs/I          state + progress\n"
      "  GET  /jobs/I/report   latest run-report snapshot\n"
      "  GET  /jobs/I/csv      coverage trajectory\n"
      "  GET  /jobs/I/heatmap  spatial activity artifact\n"
      "  GET  /jobs/I/drift    drift profile\n"
      "  POST /jobs/I/stop     checkpoint and yield\n"
      "  POST /jobs/I/start    requeue (resumes from checkpoint)\n"
      "  GET  /healthz, /stats, /metrics\n",
      argv0);
  std::exit(error != nullptr ? kExitUsage : 0);
}

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opt;
  std::string port_file;
  std::string log_file;
  casurf::log::Level log_level = casurf::log::threshold();
  bool log_flags = false;

  // Environment first so explicit flags win.
  if (const std::string err = casurf::log::configure_from_env(); !err.empty()) {
    usage(argv[0], err.c_str());
  }

  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto need_value = [&](int& idx) -> const char* {
      if (idx + 1 >= argc) {
        usage(argv[0], (std::string(flag) + " expects a value").c_str());
      }
      return argv[++idx];
    };
    auto integer = [&](int& idx, const char* name) -> unsigned long {
      const char* text = need_value(idx);
      char* end = nullptr;
      const unsigned long v = std::strtoul(text, &end, 10);
      if (end == text || *end != '\0') {
        usage(argv[0], (std::string(name) + " expects a number").c_str());
      }
      return v;
    };
    if (flag == "--help" || flag == "-h") usage(argv[0]);
    else if (flag == "--runner") opt.runner = need_value(i);
    else if (flag == "--data-dir") opt.data_dir = need_value(i);
    else if (flag == "--port") {
      const unsigned long p = integer(i, "--port");
      if (p > 65535) usage(argv[0], "--port must be 0..65535");
      opt.port = static_cast<std::uint16_t>(p);
    }
    else if (flag == "--port-file") port_file = need_value(i);
    else if (flag == "--slots") {
      opt.slots = static_cast<unsigned>(integer(i, "--slots"));
      if (opt.slots == 0) usage(argv[0], "--slots must be at least 1");
    }
    else if (flag == "--queue-cap") opt.queue_cap = integer(i, "--queue-cap");
    else if (flag == "--tenant-cap") opt.tenant_cap = integer(i, "--tenant-cap");
    else if (flag == "--worker-log-cap") {
      opt.worker_log_cap = integer(i, "--worker-log-cap");
    }
    else if (flag == "--log-level") {
      if (!casurf::log::parse_level(need_value(i), log_level)) {
        usage(argv[0], "--log-level expects debug|info|warn|error|off");
      }
      log_flags = true;
    }
    else if (flag == "--log-file") {
      log_file = need_value(i);
      log_flags = true;
    }
    else if (flag == "--max-threads") {
      opt.max_threads_per_job = static_cast<unsigned>(integer(i, "--max-threads"));
      if (opt.max_threads_per_job == 0) {
        usage(argv[0], "--max-threads must be at least 1");
      }
    }
    else usage(argv[0], ("unknown flag: " + std::string(flag)).c_str());
  }
  if (opt.runner.empty()) usage(argv[0], "--runner PATH is required");
  if (opt.data_dir.empty()) usage(argv[0], "--data-dir DIR is required");
  if (log_flags) {
    if (const std::string err = casurf::log::configure(log_level, log_file);
        !err.empty()) {
      usage(argv[0], err.c_str());
    }
  }

  // Handlers before the daemon exists: a SIGTERM during recovery/startup
  // is recorded and drains immediately after construction.
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a dropped client connection is not fatal

  try {
    Daemon daemon(opt);
    std::fprintf(stderr, "casurf_serve: listening on 127.0.0.1:%u, %u slot(s), data in %s\n",
                 static_cast<unsigned>(daemon.port()), opt.slots,
                 opt.data_dir.c_str());
    if (!port_file.empty()) {
      std::FILE* f = std::fopen(port_file.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "casurf_serve: cannot write --port-file %s\n",
                     port_file.c_str());
        return kExitRuntime;
      }
      std::fprintf(f, "%u\n", static_cast<unsigned>(daemon.port()));
      std::fclose(f);
    }

    // Park until a shutdown signal lands. sigsuspend-free polling keeps
    // this portable and the 100 ms latency is irrelevant for a drain.
    sigset_t empty;
    sigemptyset(&empty);
    struct timespec tick = {0, 100 * 1000 * 1000};
    while (g_signal == 0) ::nanosleep(&tick, nullptr);

    const int sig = static_cast<int>(g_signal);
    std::fprintf(stderr,
                 "casurf_serve: %s received; draining (checkpointing %s)\n",
                 sig == SIGINT ? "SIGINT" : "SIGTERM", "in-flight jobs");
    daemon.drain(SIGTERM);
    daemon.stop();  // joins runners once every worker has checkpointed out
    std::fprintf(stderr, "casurf_serve: drain complete\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casurf_serve: %s\n", e.what());
    return kExitRuntime;
  }
}
