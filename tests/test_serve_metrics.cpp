// Serving-layer telemetry (docs/OBSERVABILITY.md, "Serving telemetry"):
// the /metrics exposition route and its reconciliation with /stats, the
// casurf-events/1 lifecycle journals, adaptive Retry-After backpressure,
// worker.log rotation, and the scrape-under-load soak — a serve_churn-style
// fleet with a 10 Hz scraper whose every sample must parse strictly.

#include "serve/daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"
#include "obs/prom.hpp"
#include "serve/events.hpp"
#include "serve/job.hpp"

namespace casurf::serve {
namespace {

namespace fs = std::filesystem;
using obs::json::Value;
using obs::prom::Family;

class ServeMetricsTest : public ::testing::Test {
 protected:
  DaemonOptions options() {
    DaemonOptions opt;
    opt.runner = CASURF_RUN_PATH;
    opt.data_dir = data_dir_;
    opt.slots = 2;
    return opt;
  }

  static HttpResponse post(Daemon& d, const std::string& target,
                           const std::string& body = {}) {
    HttpRequest req;
    req.method = "POST";
    req.target = target;
    req.body = body;
    return d.handle(req);
  }

  static HttpResponse get(Daemon& d, const std::string& target) {
    HttpRequest req;
    req.method = "GET";
    req.target = target;
    return d.handle(req);
  }

  static std::uint64_t submitted_id(const HttpResponse& resp) {
    EXPECT_EQ(resp.status, 202) << resp.body;
    return Value::parse(resp.body).at("id").as_u64();
  }

  static std::string state_of(Daemon& d, std::uint64_t id) {
    const HttpResponse resp = get(d, "/jobs/" + std::to_string(id));
    EXPECT_NE(resp.status, 404) << resp.body;
    return Value::parse(resp.body).at("state").as_string();
  }

  static std::string wait_for(Daemon& d, std::uint64_t id,
                              const std::string& want, int timeout_s = 120) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
    for (;;) {
      const std::string state = state_of(d, id);
      if (state == want || state == "done" || state == "failed" ||
          state == "stopped") {
        return state;
      }
      if (std::chrono::steady_clock::now() > deadline) return state;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Parse a scrape body strictly; any violation fails the test.
  static std::vector<Family> scrape(Daemon& d) {
    const HttpResponse resp = get(d, "/metrics");
    EXPECT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(resp.content_type, obs::prom::kContentType);
    return obs::prom::parse(resp.body);
  }

  /// Value of a sample matching `name` and (optional) labels; -1 when
  /// absent. Matches on the SAMPLE name, so suffixed histogram/summary
  /// samples (`casurf_job_duration_ns_count`) resolve even though they
  /// live in a family named by the base.
  static double sample_value(
      const std::vector<Family>& families, const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels = {}) {
    for (const Family& f : families) {
      for (const auto& s : f.samples) {
        if (s.name != name) continue;
        bool match = true;
        for (const auto& want : labels) {
          bool found = false;
          for (const auto& have : s.labels) found |= have == want;
          match &= found;
        }
        if (match) return s.value;
      }
    }
    return -1;
  }

  /// Sum over every series of a counter family (all label sets).
  static double family_total(const std::vector<Family>& families,
                             const std::string& name) {
    double total = 0;
    for (const Family& f : families) {
      if (f.name != name) continue;
      for (const auto& s : f.samples) {
        if (s.name == name) total += s.value;
      }
    }
    return total;
  }

  /// The ordered event names of one casurf-events/1 journal.
  static std::vector<std::string> events_of(const std::string& path) {
    std::vector<std::string> out;
    const std::string text = io::read_file(path);
    std::size_t pos = 0;
    std::size_t lineno = 0;
    while (pos < text.size()) {
      std::size_t nl = text.find('\n', pos);
      EXPECT_NE(nl, std::string::npos) << "torn journal line in " << path;
      if (nl == std::string::npos) nl = text.size();
      const std::string line = text.substr(pos, nl - pos);
      pos = nl + 1;
      ++lineno;
      const Value v = Value::parse(line);  // throws on a torn line
      EXPECT_EQ(v.at("schema").as_string(), kEventsSchema)
          << path << ":" << lineno;
      EXPECT_GT(v.at("ts").as_number(), 0) << path << ":" << lineno;
      out.push_back(v.at("event").as_string());
    }
    return out;
  }

  /// Enforce the casurf-events/1 lifecycle grammar over one job journal.
  /// log_rotated may appear at any spawn boundary and is transparent to
  /// the chain.
  static void check_chain(const std::string& path) {
    static const std::map<std::string, std::set<std::string>> kNext = {
        {"submitted", {"scheduled", "cancelled"}},
        {"scheduled", {"spawned", "restarted", "failed"}},
        {"spawned", {"running", "restarted", "finished", "failed", "preempted"}},
        {"running", {"restarted", "finished", "failed", "preempted"}},
        {"restarted",
         {"spawned", "scheduled", "cancelled", "failed", "finished",
          "preempted", "restarted"}},
        {"preempted", {"restarted"}},
        {"failed", {"restarted"}},
        {"cancelled", {"restarted"}},
        {"finished", {}},
    };
    std::vector<std::string> events;
    for (const std::string& e : events_of(path)) {
      if (e != "log_rotated") events.push_back(e);
    }
    ASSERT_FALSE(events.empty()) << path;
    EXPECT_EQ(events.front(), "submitted") << path;
    for (std::size_t i = 0; i + 1 < events.size(); ++i) {
      const auto it = kNext.find(events[i]);
      ASSERT_NE(it, kNext.end()) << path << ": unknown event " << events[i];
      EXPECT_TRUE(it->second.count(events[i + 1]))
          << path << ": illegal transition " << events[i] << " -> "
          << events[i + 1];
    }
    const std::string& last = events.back();
    EXPECT_TRUE(last == "finished" || last == "failed" ||
                last == "preempted" || last == "cancelled")
        << path << ": journal ends in flight at " << last;
  }

  std::string job_dir(std::uint64_t id) const {
    return data_dir_ + "/job-" + std::to_string(id);
  }

  static constexpr const char* kQuickJob =
      R"({"model":"zgb","algorithm":"rsm","width":16,"height":16,"t_end":2,"dt":1})";
  static constexpr const char* kBlockerJob =
      R"({"model":"zgb","algorithm":"rsm","width":16,"height":16,)"
      R"("t_end":1000000,"dt":1,"checkpoint_every":1})";

  // A data directory made fresh for the test: one named after the pid alone
  // can be left over from an earlier process with the same pid, and the
  // daemon recovers every unfinished job it finds there. A failed test
  // keeps its directory for inspection.
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(data_dir_);
  }

  static std::string fresh_data_dir() {
    std::string dir = testing::TempDir() + "/serve_metrics_XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + dir);
    }
    return dir;
  }

  std::string data_dir_ = fresh_data_dir();
};

TEST_F(ServeMetricsTest, MetricsRouteMatchesBuildFlavor) {
  Daemon daemon(options());
  const HttpResponse resp = get(daemon, "/metrics");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, obs::prom::kContentType);
  const auto families = obs::prom::parse(resp.body);
  // A fresh daemon already exposes its static shape.
  EXPECT_EQ(sample_value(families, "casurf_slots"), 2);
  EXPECT_EQ(sample_value(families, "casurf_queue_depth"), 0);
  EXPECT_EQ(sample_value(families, "casurf_draining"), 0);
  EXPECT_EQ(sample_value(families, "casurf_build_info"), 1);
  // There is one build flavour, so build_info carries no labels.
  const auto info = std::ranges::find(families, "casurf_build_info", &Family::name);
  ASSERT_NE(info, families.end());
  ASSERT_EQ(info->samples.size(), 1u);
  EXPECT_TRUE(info->samples[0].labels.empty());
  EXPECT_EQ(post(daemon, "/metrics").status, 405);
}

TEST_F(ServeMetricsTest, MetricsReconcileWithStatsAfterJobsComplete) {
  Daemon daemon(options());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(submitted_id(post(daemon, "/jobs", kQuickJob)));
  }
  for (const std::uint64_t id : ids) {
    ASSERT_EQ(wait_for(daemon, id, "done"), "done");
  }

  const auto families = scrape(daemon);
  const Value stats = Value::parse(get(daemon, "/stats").body);
  const auto state_gauge = [&](const char* state) {
    return sample_value(families, "casurf_jobs", {{"state", state}});
  };
  EXPECT_EQ(state_gauge("queued"), stats.at("queued").as_number());
  EXPECT_EQ(state_gauge("running"), stats.at("running").as_number());
  EXPECT_EQ(state_gauge("done"), stats.at("done").as_number());
  EXPECT_EQ(state_gauge("failed"), stats.at("failed").as_number());
  EXPECT_EQ(state_gauge("stopped"), stats.at("stopped").as_number());
  EXPECT_EQ(state_gauge("done"), 3);
  EXPECT_EQ(sample_value(families, "casurf_queue_depth"),
            stats.at("queued").as_number());
  EXPECT_EQ(sample_value(families, "casurf_retry_after_seconds"),
            stats.at("retry_after").as_number());
  EXPECT_EQ(family_total(families, "casurf_job_submissions_total"), 3);
  // Scheduling histograms: one queue-wait per scheduling, one duration per
  // finish.
  EXPECT_EQ(sample_value(families, "casurf_job_queue_wait_ns_count"), 3);
  EXPECT_EQ(sample_value(families, "casurf_job_duration_ns_count"), 3);
  // The run-report harvest rolled real worker counters up.
  EXPECT_GT(family_total(families, "casurf_worker_trials_total"), 0);
  // Per-tenant gauges exist for the default tenant.
  EXPECT_EQ(sample_value(families, "casurf_tenant_jobs",
                         {{"tenant", "default"}, {"state", "running"}}),
            0);
}

TEST_F(ServeMetricsTest, EventJournalsFormCompleteLifecycleChains) {
  const std::uint64_t quick_id = [&] {
    Daemon daemon(options());
    // Plain life: submitted → scheduled → spawned → running → finished.
    const std::uint64_t quick = submitted_id(post(daemon, "/jobs", kQuickJob));
    EXPECT_EQ(wait_for(daemon, quick, "done"), "done");

    // Preempt → requeue → preempt: the chain survives restarts.
    const std::uint64_t blocker =
        submitted_id(post(daemon, "/jobs", kBlockerJob));
    EXPECT_EQ(wait_for(daemon, blocker, "running"), "running");
    EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(blocker) + "/stop").status,
              202);
    EXPECT_EQ(wait_for(daemon, blocker, "stopped"), "stopped");
    EXPECT_EQ(
        post(daemon, "/jobs/" + std::to_string(blocker) + "/start").status,
        202);
    EXPECT_EQ(wait_for(daemon, blocker, "running"), "running");
    EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(blocker) + "/stop").status,
              202);
    EXPECT_EQ(wait_for(daemon, blocker, "stopped"), "stopped");

    check_chain(job_dir(quick) + "/" + kJobEvents);
    check_chain(job_dir(blocker) + "/" + kJobEvents);
    const std::vector<std::string> blocker_events =
        events_of(job_dir(blocker) + "/" + kJobEvents);
    EXPECT_GE(std::count(blocker_events.begin(), blocker_events.end(),
                         "preempted"),
              2);
    EXPECT_GE(std::count(blocker_events.begin(), blocker_events.end(),
                         "restarted"),
              1);
    daemon.stop();
    return quick;
  }();
  (void)quick_id;

  // The daemon-level journal brackets the process lifecycle.
  const std::vector<std::string> daemon_events =
      events_of(data_dir_ + "/events.jsonl");
  ASSERT_FALSE(daemon_events.empty());
  EXPECT_EQ(daemon_events.front(), "daemon_started");
  EXPECT_EQ(daemon_events.back(), "daemon_stopped");
  EXPECT_NE(std::find(daemon_events.begin(), daemon_events.end(), "draining"),
            daemon_events.end());
}

TEST_F(ServeMetricsTest, RetryAfterScalesWithTheBacklog) {
  DaemonOptions opt = options();
  opt.slots = 1;
  opt.queue_cap = 8;
  Daemon daemon(opt);
  // Pin the single slot, then queue to the cap.
  const std::uint64_t blocker = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, blocker, "running"), "running");
  for (std::size_t i = 0; i < opt.queue_cap; ++i) {
    submitted_id(post(daemon, "/jobs", kQuickJob));
  }

  // /stats advertises the backoff POST /jobs would return right now:
  // 8 queued / 1 slot = 8 scheduling turns.
  const Value stats = Value::parse(get(daemon, "/stats").body);
  EXPECT_EQ(stats.at("retry_after").as_u64(), 8u);

  const HttpResponse full = post(daemon, "/jobs", kQuickJob);
  EXPECT_EQ(full.status, 429);
  bool saw_header = false;
  for (const auto& [name, value] : full.extra_headers) {
    if (name == "Retry-After") {
      saw_header = true;
      EXPECT_EQ(value, "8");
    }
  }
  EXPECT_TRUE(saw_header) << "429 must advertise an adaptive Retry-After";

  // Draining pushes the advice to the 30 s ceiling.
  daemon.drain(SIGTERM);
  const HttpResponse refused = post(daemon, "/jobs", kQuickJob);
  EXPECT_EQ(refused.status, 503);
  saw_header = false;
  for (const auto& [name, value] : refused.extra_headers) {
    if (name == "Retry-After") {
      saw_header = true;
      EXPECT_EQ(value, "30");
    }
  }
  EXPECT_TRUE(saw_header);
  EXPECT_EQ(Value::parse(get(daemon, "/stats").body).at("retry_after").as_u64(),
            30u);
}

TEST_F(ServeMetricsTest, WorkerLogRotatesBetweenSpawns) {
  DaemonOptions opt = options();
  opt.worker_log_cap = 512;
  Daemon daemon(opt);

  const std::uint64_t id = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, id, "running"), "running");
  ASSERT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/stop").status, 202);
  ASSERT_EQ(wait_for(daemon, id, "stopped"), "stopped");

  // Fatten the idle worker.log past the cap; the requeued attempt must
  // rotate it away before its worker spawns.
  io::atomic_write_file(job_dir(id) + "/" + kJobLog, std::string(4096, 'x'));
  ASSERT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/start").status, 202);
  ASSERT_EQ(wait_for(daemon, id, "running"), "running");
  ASSERT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/stop").status, 202);
  ASSERT_EQ(wait_for(daemon, id, "stopped"), "stopped");

  EXPECT_TRUE(fs::exists(job_dir(id) + "/" + kJobLogRotated));
  // Whatever landed in .1 was over the cap when it rotated.
  EXPECT_GT(fs::file_size(job_dir(id) + "/" + kJobLogRotated), 512u);
  const std::vector<std::string> events =
      events_of(job_dir(id) + "/" + kJobEvents);
  EXPECT_NE(std::find(events.begin(), events.end(), "log_rotated"),
            events.end());
  check_chain(job_dir(id) + "/" + kJobEvents);
  EXPECT_GE(family_total(scrape(daemon), "casurf_job_log_rotations_total"), 1);
}

TEST_F(ServeMetricsTest, SoakScrapeUnderLoadStaysParseableAndReconciles) {
  DaemonOptions opt = options();
  opt.slots = 4;
  opt.queue_cap = 256;
  opt.tenant_cap = 256;
  Daemon daemon(opt);

  // 10 Hz scraper riding along for the whole churn: every /metrics body
  // must parse strictly and every scrape must be internally consistent.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const HttpResponse resp = get(daemon, "/metrics");
      ASSERT_EQ(resp.status, 200);
      std::vector<Family> families;
      ASSERT_NO_THROW(families = obs::prom::parse(resp.body))
          << resp.body.substr(0, 400);
      // Both gauges are computed under one lock hold: always equal.
      EXPECT_EQ(sample_value(families, "casurf_queue_depth"),
                sample_value(families, "casurf_jobs", {{"state", "queued"}}));
      ASSERT_NO_THROW((void)Value::parse(get(daemon, "/stats").body));
      scrapes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // The churn: 100 quick jobs across tenants/priorities plus 4 blockers
  // that get preempted and requeued mid-flight.
  std::vector<std::uint64_t> quick_ids;
  std::vector<std::uint64_t> blocker_ids;
  for (int i = 0; i < 4; ++i) {
    blocker_ids.push_back(submitted_id(post(daemon, "/jobs", kBlockerJob)));
  }
  for (int i = 0; i < 100; ++i) {
    obs::json::Writer w;
    w.begin_object();
    w.key("model"), w.string("zgb");
    w.key("algorithm"), w.string("rsm");
    w.key("width"), w.i64(16);
    w.key("height"), w.i64(16);
    w.key("t_end"), w.number(2);
    w.key("dt"), w.number(1);
    w.key("tenant"), w.string("lab-" + std::to_string(i % 3));
    w.key("priority"), w.i64(i % 10);
    w.end_object();
    quick_ids.push_back(submitted_id(post(daemon, "/jobs", std::move(w).str())));
  }

  for (const std::uint64_t id : blocker_ids) {
    ASSERT_EQ(wait_for(daemon, id, "running"), "running");
    ASSERT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/stop").status,
              202);
    ASSERT_EQ(wait_for(daemon, id, "stopped"), "stopped");
  }
  // Requeue two of them, then preempt again once running.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t id = blocker_ids[i];
    ASSERT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/start").status,
              202);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t id = blocker_ids[i];
    ASSERT_EQ(wait_for(daemon, id, "running"), "running");
    ASSERT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/stop").status,
              202);
    ASSERT_EQ(wait_for(daemon, id, "stopped"), "stopped");
  }
  for (const std::uint64_t id : quick_ids) {
    ASSERT_EQ(wait_for(daemon, id, "done"), "done") << "job " << id;
  }

  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  // Quiesced: /metrics and /stats must reconcile exactly.
  const Value stats = Value::parse(get(daemon, "/stats").body);
  EXPECT_EQ(stats.at("queued").as_u64(), 0u);
  EXPECT_EQ(stats.at("running").as_u64(), 0u);
  EXPECT_EQ(stats.at("done").as_u64(), 100u);
  EXPECT_EQ(stats.at("stopped").as_u64(), 4u);
  const auto families = scrape(daemon);
  EXPECT_EQ(sample_value(families, "casurf_jobs", {{"state", "queued"}}), 0);
  EXPECT_EQ(sample_value(families, "casurf_jobs", {{"state", "running"}}), 0);
  EXPECT_EQ(sample_value(families, "casurf_jobs", {{"state", "done"}}),
            stats.at("done").as_number());
  EXPECT_EQ(sample_value(families, "casurf_jobs", {{"state", "failed"}}),
            stats.at("failed").as_number());
  EXPECT_EQ(sample_value(families, "casurf_jobs", {{"state", "stopped"}}),
            stats.at("stopped").as_number());
  EXPECT_EQ(family_total(families, "casurf_job_submissions_total"), 104);
  EXPECT_EQ(family_total(families, "casurf_job_preemptions_total"), 6);
  EXPECT_EQ(sample_value(families, "casurf_job_restarts_total",
                         {{"cause", "requeue"}}),
            2);
  // 104 first schedulings + 2 requeues.
  EXPECT_EQ(sample_value(families, "casurf_job_queue_wait_ns_count"), 106);
  EXPECT_EQ(sample_value(families, "casurf_job_duration_ns_count"), 106);
  EXPECT_GT(family_total(families, "casurf_worker_trials_total"), 0);
  EXPECT_GT(family_total(families, "casurf_http_requests_total"), 0);

  // Every job's journal must read as a complete lifecycle chain.
  for (const std::uint64_t id : quick_ids) {
    check_chain(job_dir(id) + "/" + kJobEvents);
  }
  for (const std::uint64_t id : blocker_ids) {
    check_chain(job_dir(id) + "/" + kJobEvents);
  }
}

}  // namespace
}  // namespace casurf::serve
