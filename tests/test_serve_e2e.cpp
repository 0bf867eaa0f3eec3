// End-to-end serving: a soak of hundreds of overlapping jobs around a
// long checkpointing run, worker-crash recovery with a byte-identical
// trajectory, and the real casurf_serve binary draining on SIGTERM.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"
#include "serve/daemon.hpp"
#include "serve/spawn.hpp"

namespace casurf::serve {
namespace {

namespace fs = std::filesystem;
using obs::json::Value;

// A directory of the test's own: one named after the pid alone can be left
// over from an earlier process with the same pid, and a daemon recovers
// every unfinished job it finds in its data directory.
std::string fresh_dir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/serve_e2e_" + tag + "_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed for " + dir);
  }
  return dir;
}

std::string wait_terminal(Daemon& daemon, std::uint64_t id, int timeout_s) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/jobs/" + std::to_string(id);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  for (;;) {
    const std::string state =
        Value::parse(daemon.handle(req).body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "stopped") {
      return state;
    }
    if (std::chrono::steady_clock::now() > deadline) return state;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

HttpResponse api(Daemon& daemon, const std::string& method,
                 const std::string& target, const std::string& body = {}) {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  return daemon.handle(req);
}

// ── Soak: many short jobs around one long checkpointing run ─────────────

TEST(ServeE2E, SoakHundredsOfJobsAroundALongCheckpointingRun) {
  DaemonOptions opt;
  opt.runner = CASURF_RUN_PATH;
  opt.data_dir = fresh_dir("soak");
  opt.slots = 4;
  opt.queue_cap = 512;
  opt.tenant_cap = 512;
  Daemon daemon(opt);

  // The long Pt(100) oscillator keeps checkpointing throughout the churn.
  const HttpResponse long_resp = api(
      daemon, "POST", "/jobs",
      R"({"model":"pt100","algorithm":"ndca","width":48,"height":48,)"
      R"("t_end":1000000,"dt":1,"checkpoint_every":1,"priority":9,)"
      R"("tenant":"longrun"})");
  ASSERT_EQ(long_resp.status, 202) << long_resp.body;
  const std::uint64_t long_id = Value::parse(long_resp.body).at("id").as_u64();

  constexpr int kJobs = 200;
  std::vector<std::uint64_t> ids;
  ids.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    // Vary seed and priority so the scheduler actually reorders work.
    const std::string body =
        R"({"model":"zgb","algorithm":"rsm","width":12,"height":12,)"
        R"("t_end":1,"dt":1,"seed":)" +
        std::to_string(i + 1) + R"(,"priority":)" + std::to_string(i % 10) +
        "}";
    const HttpResponse resp = api(daemon, "POST", "/jobs", body);
    ASSERT_EQ(resp.status, 202) << "job " << i << ": " << resp.body;
    ids.push_back(Value::parse(resp.body).at("id").as_u64());
  }

  for (const std::uint64_t id : ids) {
    EXPECT_EQ(wait_terminal(daemon, id, 540), "done")
        << api(daemon, "GET", "/jobs/" + std::to_string(id)).body;
  }

  // The long job survived the churn, is still running, and has been
  // checkpointing the whole time.
  const HttpResponse long_status =
      api(daemon, "GET", "/jobs/" + std::to_string(long_id));
  EXPECT_EQ(Value::parse(long_status.body).at("state").as_string(), "running");
  EXPECT_TRUE(fs::exists(fs::path(opt.data_dir) /
                         ("job-" + std::to_string(long_id)) / kJobCheckpoint));

  EXPECT_EQ(api(daemon, "POST", "/jobs/" + std::to_string(long_id) + "/stop")
                .status,
            202);
  EXPECT_EQ(wait_terminal(daemon, long_id, 120), "stopped");

  const Value stats = Value::parse(api(daemon, "GET", "/stats").body);
  EXPECT_EQ(stats.at("done").as_u64(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.at("failed").as_u64(), 0u);
}

// ── Worker-crash recovery: byte-identical trajectory ────────────────────

TEST(ServeE2E, KilledWorkerRecoversWithByteIdenticalCsv) {
  DaemonOptions opt;
  opt.runner = CASURF_RUN_PATH;
  opt.data_dir = fresh_dir("kill");
  Daemon daemon(opt);

  // Same physics twice; the victim's worker is SIGKILLed (a real kill(2),
  // not an exception) after the 3rd and 6th checkpoints and must restart
  // from the chain each time.
  const char* base =
      R"("model":"zgb","algorithm":"vssm","width":24,"height":24,)"
      R"("t_end":8,"dt":1,"seed":4242)";
  const HttpResponse clean_resp =
      api(daemon, "POST", "/jobs", std::string("{") + base + "}");
  const HttpResponse victim_resp = api(
      daemon, "POST", "/jobs",
      std::string("{") + base + R"(,"retries":5,"failpoints":"run/kill=hit@3"})");
  ASSERT_EQ(clean_resp.status, 202) << clean_resp.body;
  ASSERT_EQ(victim_resp.status, 202) << victim_resp.body;
  const std::uint64_t clean = Value::parse(clean_resp.body).at("id").as_u64();
  const std::uint64_t victim = Value::parse(victim_resp.body).at("id").as_u64();

  ASSERT_EQ(wait_terminal(daemon, clean, 300), "done");
  ASSERT_EQ(wait_terminal(daemon, victim, 300), "done");

  const Value status =
      Value::parse(api(daemon, "GET", "/jobs/" + std::to_string(victim)).body);
  EXPECT_GE(status.at("restarts").as_u64(), 1u)
      << "failpoint never fired; the recovery path went untested";

  const HttpResponse clean_csv =
      api(daemon, "GET", "/jobs/" + std::to_string(clean) + "/csv");
  const HttpResponse victim_csv =
      api(daemon, "GET", "/jobs/" + std::to_string(victim) + "/csv");
  ASSERT_EQ(clean_csv.status, 200);
  ASSERT_EQ(victim_csv.status, 200);
  EXPECT_EQ(victim_csv.body, clean_csv.body)
      << "crash recovery must reproduce the uninterrupted trajectory byte "
         "for byte";
}

// ── The real binary: drain on SIGTERM ───────────────────────────────────

TEST(ServeE2E, ServeBinaryDrainsOnSigtermWithCheckpoints) {
  const std::string dir = fresh_dir("binary");
  const std::string port_file = dir + "/port";
  volatile pid_t child = 0;
  const pid_t pid = spawn_supervised(&child, nullptr, [&] {
    ::execl(CASURF_SERVE_PATH, CASURF_SERVE_PATH, "--runner", CASURF_RUN_PATH,
            "--data-dir", (dir + "/data").c_str(), "--port-file",
            port_file.c_str(), "--slots", "2", static_cast<char*>(nullptr));
    return 127;
  });
  ASSERT_GT(pid, 0);

  // Wait for the daemon to publish its port.
  std::uint16_t port = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (port == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    if (!fs::exists(port_file)) continue;
    try {
      port = static_cast<std::uint16_t>(std::stoi(io::read_file(port_file)));
    } catch (const std::exception&) {
    }
  }
  ASSERT_NE(port, 0) << "daemon never published its port";

  const HttpResponse resp = http_request(
      port, "POST", "/jobs",
      R"({"model":"pt100","algorithm":"ndca","width":32,"height":32,)"
      R"("t_end":1000000,"dt":1,"checkpoint_every":1})");
  ASSERT_EQ(resp.status, 202) << resp.body;
  const std::uint64_t id = Value::parse(resp.body).at("id").as_u64();
  const std::string job_dir = dir + "/data/job-" + std::to_string(id);

  // Let the worker reach its first checkpoint before pulling the plug.
  while (!fs::exists(job_dir + "/" + kJobCheckpoint) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(fs::exists(job_dir + "/" + kJobCheckpoint));

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "drain must exit cleanly";

  // The drained job was checkpointed and marked stopped on disk, so a
  // restarted daemon would requeue nothing but a deliberate /start.
  const Value exit_marker =
      Value::parse(io::read_file(job_dir + "/exit.json"));
  EXPECT_EQ(exit_marker.at("state").as_string(), "stopped");
  EXPECT_EQ(exit_marker.at("exit_code").as_u64(), 143u);
  EXPECT_TRUE(fs::exists(job_dir + "/" + kJobCheckpoint));
}

}  // namespace
}  // namespace casurf::serve
