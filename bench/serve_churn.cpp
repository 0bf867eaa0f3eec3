// serve_churn — job-daemon throughput under churn.
//
// Stands up an in-process serve::Daemon (the same class behind the
// casurf_serve binary), pushes a wave of short ZGB jobs through the HTTP
// API, and reports submission latency plus end-to-end completion
// throughput per slot count. Every job is a real fork+exec'd casurf_run
// worker, so the numbers include process startup — the cost that decides
// whether the one-worker-per-job isolation model is affordable.
//
// A 10 Hz scraper thread hits GET /metrics throughout each wave and runs
// every response through the strict exposition parser, so the bench also
// smoke-tests the telemetry path under load.
//
// CASURF_BENCH_FAST=1 shrinks the wave for CI smoke runs.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/prom.hpp"
#include "serve/daemon.hpp"
#include "serve/http.hpp"

namespace {

using casurf::obs::json::Value;
using casurf::serve::Daemon;
using casurf::serve::DaemonOptions;
using casurf::serve::HttpResponse;
using casurf::serve::http_request;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ChurnResult {
  double submit_seconds = 0;   // wall time to POST the whole wave
  double drain_seconds = 0;    // wall time until every job is terminal
  int completed = 0;
  int failed = 0;
  int scrapes = 0;             // /metrics responses validated mid-wave
};

ChurnResult run_wave(unsigned slots, int jobs, const std::string& data_dir) {
  DaemonOptions opt;
  opt.runner = CASURF_RUN_PATH;
  opt.data_dir = data_dir;
  opt.slots = slots;
  opt.queue_cap = static_cast<std::size_t>(jobs) + 8;
  opt.tenant_cap = static_cast<std::size_t>(jobs) + 8;
  Daemon daemon(opt);

  ChurnResult result;

  // 10 Hz scraper: every /metrics body must survive the strict 0.0.4
  // parser while runners churn underneath it.
  std::atomic<bool> scraping{true};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (scraping.load(std::memory_order_relaxed)) {
      const HttpResponse resp = http_request(daemon.port(), "GET", "/metrics");
      if (resp.status != 200) {
        std::fprintf(stderr, "/metrics returned %d\n", resp.status);
        std::exit(1);
      }
      try {
        (void)casurf::obs::prom::parse(resp.body);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "/metrics failed strict parse: %s\n", e.what());
        std::exit(1);
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(jobs));
  const auto submit_t0 = Clock::now();
  for (int i = 0; i < jobs; ++i) {
    const std::string body =
        R"({"model":"zgb","algorithm":"rsm","width":16,"height":16,)"
        R"("t_end":1,"dt":1,"seed":)" +
        std::to_string(i + 1) + "}";
    const HttpResponse resp = http_request(daemon.port(), "POST", "/jobs", body);
    if (resp.status != 202) {
      std::fprintf(stderr, "submit %d failed: %d %s\n", i, resp.status,
                   resp.body.c_str());
      std::exit(1);
    }
    ids.push_back(Value::parse(resp.body).at("id").as_u64());
  }
  result.submit_seconds = seconds_since(submit_t0);

  const auto drain_t0 = Clock::now();
  for (const std::uint64_t id : ids) {
    for (;;) {
      const HttpResponse resp =
          http_request(daemon.port(), "GET", "/jobs/" + std::to_string(id));
      const std::string state = Value::parse(resp.body).at("state").as_string();
      if (state == "done") {
        ++result.completed;
        break;
      }
      if (state == "failed" || state == "stopped") {
        ++result.failed;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  result.drain_seconds = seconds_since(drain_t0);

  scraping.store(false, std::memory_order_relaxed);
  scraper.join();
  result.scrapes = scrapes.load(std::memory_order_relaxed);
  return result;
}

}  // namespace

int main() {
  const bool fast = std::getenv("CASURF_BENCH_FAST") != nullptr;
  const int jobs = fast ? 16 : 200;

  std::printf("serve_churn: %d ZGB jobs (16x16, t_end 1) per wave, "
              "one casurf_run worker process per job\n\n", jobs);
  std::printf("%-6s %-10s %-12s %-12s %-10s %-8s\n", "slots", "completed",
              "submit_ms", "drain_s", "jobs/s", "scrapes");

  for (const unsigned slots : {1u, 2u, 4u, 8u}) {
    const std::string dir = "serve_churn_out/slots_" + std::to_string(slots);
    const ChurnResult r = run_wave(slots, jobs, dir);
    if (r.failed != 0) {
      std::fprintf(stderr, "%d job(s) did not complete\n", r.failed);
      return 1;
    }
    const double total = r.submit_seconds + r.drain_seconds;
    std::printf("%-6u %-10d %-12.1f %-12.2f %-10.1f %-8d\n", slots,
                r.completed, r.submit_seconds * 1e3, r.drain_seconds,
                total > 0 ? jobs / total : 0.0, r.scrapes);
  }
  std::printf("\njobs/s counts full job lifecycle: HTTP submit, queue, "
              "fork+exec, simulate, checkpoint, report, join. Every scrape "
              "is a /metrics body that passed the strict 0.0.4 parser "
              "mid-wave.\n");
  return 0;
}
