// JobSpec validation/compilation and the Daemon's API surface: lifecycle,
// priority order, quotas, backpressure, stop/start preemption, and
// daemon-restart recovery. Drives Daemon::handle() directly — the HTTP
// framing has its own suite in test_http.cpp.

#include "serve/daemon.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"
#include "serve/job.hpp"
#include "util/log.hpp"

namespace casurf::serve {
namespace {

namespace fs = std::filesystem;
using obs::json::Value;

JobSpec spec_of(const std::string& json) {
  return JobSpec::from_json(Value::parse(json));
}

// ── JobSpec ─────────────────────────────────────────────────────────────

TEST(JobSpec, MinimalSpecGetsDocumentedDefaults) {
  const JobSpec s = spec_of(R"({"model":"zgb"})");
  EXPECT_EQ(s.model, "zgb");
  EXPECT_EQ(s.tenant, "default");
  EXPECT_EQ(s.priority, 5);
  EXPECT_EQ(s.algorithm, "rsm");
  EXPECT_EQ(s.width, 64);
  EXPECT_EQ(s.height, 64);
  EXPECT_DOUBLE_EQ(s.t_end, 10);
  EXPECT_EQ(s.threads, 1u);
}

TEST(JobSpec, UnknownMembersAreRejectedNotIgnored) {
  // A typo'd knob must fail loudly, never silently run with the default.
  EXPECT_THROW(spec_of(R"({"model":"zgb","t_endd":5})"), std::runtime_error);
}

TEST(JobSpec, ExactlyOneModelSourceRequired) {
  EXPECT_THROW(spec_of(R"({})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","model_text":"species CO"})"),
               std::runtime_error);
  EXPECT_NO_THROW(spec_of(R"({"model_text":"species CO on *"})"));
}

TEST(JobSpec, ValidationRejectsOutOfRangeKnobs) {
  EXPECT_THROW(spec_of(R"({"model":"bogus"})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","algorithm":"magic"})"),
               std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","priority":10})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","priority":-1})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","tenant":"no spaces"})"),
               std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","t_end":0})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","width":0})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","y":1.5})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","threads":0})"), std::runtime_error);
  EXPECT_THROW(spec_of(R"({"model":"zgb","heatmap_every":2})"),
               std::runtime_error);
  EXPECT_THROW(spec_of("[1,2,3]"), std::runtime_error);
}

TEST(JobSpec, ZgbAndIsingRatesInRange) {
  // make_zgb refuses y = 0 and y = 1 (one adsorption rate is zero) and
  // make_ising a negative beta: the spec answers 400 instead of spawning a
  // worker that can never start.
  for (const char* y : {"0", "1", "-0.5", "1.5"}) {
    EXPECT_THROW(spec_of(std::string(R"({"model":"zgb","y":)") + y + "}"),
                 std::runtime_error)
        << "y " << y;
  }
  EXPECT_DOUBLE_EQ(spec_of(R"({"model":"zgb","y":0.525})").y, 0.525);
  EXPECT_THROW(spec_of(R"({"model":"ising","beta":-1})"), std::runtime_error);
  EXPECT_DOUBLE_EQ(spec_of(R"({"model":"ising","beta":0})").beta, 0.0);
}

TEST(JobSpec, ThreadsNeedAThreadedAlgorithm) {
  // Only PNDCA has a threaded sweep. Any other algorithm would ignore a
  // thread count, so the spec refuses one above 1 and names the algorithm.
  for (const char* algorithm : {"rsm", "vssm", "frm", "ndca", "lpndca", "tpndca"}) {
    SCOPED_TRACE(algorithm);
    const std::string head = std::string(R"({"model":"zgb","algorithm":")") + algorithm;
    try {
      (void)spec_of(head + R"(","threads":2})");
      FAIL() << "threads 2 was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("algorithm ") + algorithm +
                                           " has no threaded path"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(spec_of(head + R"(","threads":1})").threads, 1u);
  }
  for (const char* algorithm : {"pndca", "parallel"}) {
    const std::string json =
        std::string(R"({"model":"zgb","threads":4,"algorithm":")") + algorithm + R"("})";
    EXPECT_EQ(spec_of(json).threads, 4u) << algorithm;
  }
}

TEST(JobSpec, SampleGridIsBounded) {
  // t_end / dt + 1 rows at most kMaxSampleRows (2^24): a grid of 10^300
  // rows would grow the worker's recorder until the OOM killer stops it.
  try {
    (void)spec_of(R"({"model":"zgb","t_end":1,"dt":1e-300})");
    FAIL() << "a 10^300-row grid was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("t_end 1 with dt 1e-300"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(spec_of(R"({"model":"zgb","t_end":16777216,"dt":1})"), std::runtime_error);
  EXPECT_NO_THROW(spec_of(R"({"model":"zgb","t_end":16777215,"dt":1})"));
  // The longest bundled job: the serve suites' checkpointing soak.
  EXPECT_NO_THROW(spec_of(R"({"model":"zgb","t_end":1000000,"dt":1})"));
}

TEST(JobSpec, ToArgvCompilesTheWorkerCommandLine) {
  JobSpec s = spec_of(
      R"({"model":"pt100","algorithm":"ndca","width":32,"height":48,)"
      R"("t_end":7.5,"seed":99,"fast_path":true,"heatmap":true,)"
      R"("failpoints":"run/kill=hit@3"})");
  const std::vector<std::string> argv = s.to_argv("/bin/runner", "/jobs/1", false);
  ASSERT_FALSE(argv.empty());
  EXPECT_EQ(argv[0], "/bin/runner");
  auto value_after = [&](const std::string& flag) -> std::string {
    for (std::size_t i = 1; i + 1 < argv.size(); ++i) {
      if (argv[i] == flag) return argv[i + 1];
    }
    return "<absent>";
  };
  auto has = [&](const std::string& flag) {
    return std::find(argv.begin(), argv.end(), flag) != argv.end();
  };
  EXPECT_EQ(value_after("--model"), "pt100");
  EXPECT_EQ(value_after("--algorithm"), "ndca");
  EXPECT_EQ(value_after("--size"), "32x48");
  EXPECT_EQ(value_after("--seed"), "99");
  EXPECT_EQ(value_after("--t-end"), "7.5");
  EXPECT_EQ(value_after("--checkpoint"), std::string("/jobs/1/") + kJobCheckpoint);
  EXPECT_EQ(value_after("--csv"), std::string("/jobs/1/") + kJobCsv);
  EXPECT_EQ(value_after("--metrics"), std::string("/jobs/1/") + kJobReport);
  EXPECT_EQ(value_after("--failpoints"), "run/kill=hit@3");
  EXPECT_FALSE(has("--fast-path"));  // accepted in the spec, never forwarded
  EXPECT_TRUE(has("--heatmap"));
  EXPECT_TRUE(has("--quiet"));
  EXPECT_FALSE(has("--resume"));

  const std::vector<std::string> resumed =
      s.to_argv("/bin/runner", "/jobs/1", true);
  EXPECT_NE(std::find(resumed.begin(), resumed.end(), "--resume"),
            resumed.end());
}

TEST(JobSpec, RetiredFastPathIsAcceptedTypeCheckedAndDropped) {
  // Specs written before the knob was retired carry it; they must parse,
  // and the re-serialized spec no longer mentions it.
  const JobSpec s = spec_of(R"({"model":"zgb","fast_path":true})");
  EXPECT_EQ(s.to_json().find("fast_path"), std::string::npos);
  EXPECT_THROW(spec_of(R"({"model":"zgb","fast_path":"yes"})"), std::runtime_error);
}

TEST(JobSpec, MalformedFailpointsAreRejected) {
  // The CLI refuses this spec with exit 2; the JobSpec answers 400 with the
  // same message instead of spawning a worker that can never start.
  try {
    (void)spec_of(R"({"model":"zgb","failpoints":"run/kill=sometimes"})");
    FAIL() << "a malformed failpoints spec was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "failpoint 'run/kill': unknown trigger 'sometimes' (expected hit@N or "
                  "prob@P)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(spec_of(R"({"model":"zgb","failpoints":"run/kill"})"), std::runtime_error);
  EXPECT_EQ(spec_of(R"({"model":"zgb","failpoints":"run/kill=prob@0.5"})").failpoints,
            "run/kill=prob@0.5");
}

TEST(JobSpec, InlineModelTextUsesModelFileFlag) {
  const JobSpec s = spec_of(R"({"model_text":"species CO on *"})");
  const std::vector<std::string> argv = s.to_argv("r", "/d", false);
  const auto it = std::find(argv.begin(), argv.end(), "--model-file");
  ASSERT_NE(it, argv.end());
  EXPECT_EQ(*(it + 1), std::string("/d/") + kJobModelFile);
  EXPECT_EQ(std::find(argv.begin(), argv.end(), "--model"), argv.end());
}

TEST(JobSpec, JsonRoundTripPreservesTheSpec) {
  const JobSpec s = spec_of(
      R"({"model":"ising","algorithm":"lpndca","beta":0.7,"priority":8,)"
      R"("tenant":"lab-3","L":4,"drift_record":true})");
  const JobSpec back = spec_of(s.to_json());
  EXPECT_EQ(back.model, "ising");
  EXPECT_EQ(back.algorithm, "lpndca");
  EXPECT_DOUBLE_EQ(back.beta, 0.7);
  EXPECT_EQ(back.priority, 8);
  EXPECT_EQ(back.tenant, "lab-3");
  EXPECT_EQ(back.l_trials, 4u);
  EXPECT_TRUE(back.drift_record);
}

// ── Daemon ──────────────────────────────────────────────────────────────

class ServeDaemonTest : public ::testing::Test {
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

  /// Poll until the job reaches `want` (or any terminal state); returns
  /// the state it landed in.
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

  // Short enough to finish in well under a second per worker.
  static constexpr const char* kQuickJob =
      R"({"model":"zgb","algorithm":"rsm","width":16,"height":16,"t_end":2,"dt":1})";
  // Never finishes on its own: the test must stop (preempt) it.
  static constexpr const char* kBlockerJob =
      R"({"model":"zgb","algorithm":"rsm","width":16,"height":16,)"
      R"("t_end":1000000,"dt":1,"checkpoint_every":1})";

  /// The job's /jobs/<id> record (state, exit_code, error, restarts), for
  /// failure messages.
  static std::string job_record(Daemon& d, std::uint64_t id) {
    return "job " + std::to_string(id) + ": " + get(d, "/jobs/" + std::to_string(id)).body;
  }

  // A data directory made fresh for the test: one named after the pid alone
  // can be left over from an earlier process with the same pid, and the
  // daemon recovers every unfinished job it finds there. A failed test
  // keeps its directory for inspection.
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(data_dir_);
  }

  static std::string fresh_data_dir() {
    std::string dir = testing::TempDir() + "/serve_jobs_XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + dir);
    }
    return dir;
  }

  std::string data_dir_ = fresh_data_dir();
};

TEST_F(ServeDaemonTest, JobRunsToCompletionWithArtifacts) {
  Daemon daemon(options());
  const std::uint64_t id = submitted_id(post(daemon, "/jobs", kQuickJob));
  ASSERT_EQ(wait_for(daemon, id, "done"), "done");

  const HttpResponse status = get(daemon, "/jobs/" + std::to_string(id));
  const Value v = Value::parse(status.body);
  EXPECT_EQ(v.at("exit_code").as_u64(), 0u);
  EXPECT_DOUBLE_EQ(v.at("progress").as_number(), 1.0);

  const HttpResponse csv = get(daemon, "/jobs/" + std::to_string(id) + "/csv");
  EXPECT_EQ(csv.status, 200);
  EXPECT_EQ(csv.content_type, "text/csv");
  EXPECT_EQ(csv.body.rfind("time,", 0), 0u);

  const HttpResponse report =
      get(daemon, "/jobs/" + std::to_string(id) + "/report");
  EXPECT_EQ(report.status, 200);
  EXPECT_TRUE(Value::parse(report.body).find("counters") != nullptr);
}

TEST_F(ServeDaemonTest, InlineModelTextIsParsedByTheWorker) {
  Daemon daemon(options());
  // The bundled ZGB definition inlined as model-DSL text, so the worker
  // exercises the --model-file path end to end.
  const std::string model = io::read_file(
      (fs::path(__FILE__).parent_path().parent_path() / "data" / "zgb.model")
          .string());
  obs::json::Writer w;
  w.begin_object();
  w.key("model_text"), w.string(model);
  w.key("algorithm"), w.string("vssm");
  w.key("width"), w.i64(16);
  w.key("height"), w.i64(16);
  w.key("t_end"), w.number(1);
  w.end_object();
  const std::uint64_t id =
      submitted_id(post(daemon, "/jobs", std::move(w).str()));
  EXPECT_EQ(wait_for(daemon, id, "done"), "done");
}

TEST_F(ServeDaemonTest, UnparsableModelTextFailsWithoutRestarts) {
  // The spec is well formed, but its model names an undeclared species:
  // the worker exits 2 and the job fails at once, its retries unspent.
  Daemon daemon(options());
  const std::uint64_t id = submitted_id(post(
      daemon, "/jobs",
      R"({"model_text":"species * A\nreaction ads rate=1\n  (0,0) B -> A\nend\n",)"
      R"("algorithm":"rsm","width":8,"height":8,"t_end":1,"retries":3})"));
  ASSERT_EQ(wait_for(daemon, id, "failed"), "failed");
  const Value v = Value::parse(get(daemon, "/jobs/" + std::to_string(id)).body);
  EXPECT_EQ(v.at("exit_code").as_u64(), 2u);
  EXPECT_EQ(v.at("restarts").as_u64(), 0u);
}

TEST_F(ServeDaemonTest, InvalidSpecsGet400) {
  Daemon daemon(options());
  EXPECT_EQ(post(daemon, "/jobs", "not json").status, 400);
  EXPECT_EQ(post(daemon, "/jobs", R"({"model":"bogus"})").status, 400);
  EXPECT_EQ(post(daemon, "/jobs", R"({"model":"zgb","algorithm":"vssm","threads":2})")
                .status,
            400);
}

TEST_F(ServeDaemonTest, UnknownRoutesAndMethodsAreMapped) {
  Daemon daemon(options());
  EXPECT_EQ(get(daemon, "/nope").status, 404);
  EXPECT_EQ(get(daemon, "/jobs/999").status, 404);
  EXPECT_EQ(get(daemon, "/jobs/1x").status, 404);
  EXPECT_EQ(post(daemon, "/healthz").status, 405);
  EXPECT_EQ(post(daemon, "/jobs/1/report").status, 405);
  EXPECT_EQ(get(daemon, "/healthz").status, 200);
}

TEST_F(ServeDaemonTest, HigherPriorityJobLeavesTheQueueFirst) {
  DaemonOptions opt = options();
  opt.slots = 1;  // one slot → queue order is observable
  Daemon daemon(opt);
  const std::uint64_t blocker = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, blocker, "running"), "running");

  // Both contenders are blockers too, so whichever one the scheduler
  // picks stays observably "running" instead of racing to "done" between
  // two polls.
  const std::uint64_t low = submitted_id(post(
      daemon, "/jobs",
      R"({"model":"zgb","width":16,"height":16,"t_end":1000000,"dt":1,)"
      R"("checkpoint_every":1,"priority":1})"));
  const std::uint64_t high = submitted_id(post(
      daemon, "/jobs",
      R"({"model":"zgb","width":16,"height":16,"t_end":1000000,"dt":1,)"
      R"("checkpoint_every":1,"priority":9})"));

  // Free the slot: the priority-9 job must be picked over the earlier
  // priority-1 submission.
  EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(blocker) + "/stop").status,
            202);
  ASSERT_EQ(wait_for(daemon, high, "running"), "running");
  EXPECT_EQ(state_of(daemon, low), "queued")
      << "low-priority job overtook the priority-9 submission";
  post(daemon, "/jobs/" + std::to_string(high) + "/stop");
  ASSERT_EQ(wait_for(daemon, low, "running"), "running");
  post(daemon, "/jobs/" + std::to_string(low) + "/stop");
  EXPECT_EQ(wait_for(daemon, low, "stopped"), "stopped");
  EXPECT_EQ(wait_for(daemon, blocker, "stopped"), "stopped");
}

TEST_F(ServeDaemonTest, FullQueueGets429WithRetryAfter) {
  DaemonOptions opt = options();
  opt.slots = 1;
  opt.queue_cap = 2;
  Daemon daemon(opt);
  const std::uint64_t blocker = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, blocker, "running"), "running");
  submitted_id(post(daemon, "/jobs", kQuickJob));
  submitted_id(post(daemon, "/jobs", kQuickJob));

  const HttpResponse full = post(daemon, "/jobs", kQuickJob);
  EXPECT_EQ(full.status, 429) << full.body;
  bool retry_after = false;
  for (const auto& [name, value] : full.extra_headers) {
    if (name == "Retry-After") retry_after = true;
  }
  EXPECT_TRUE(retry_after);
  post(daemon, "/jobs/" + std::to_string(blocker) + "/stop");
}

TEST_F(ServeDaemonTest, TenantQuotaGets403ButOtherTenantsProceed) {
  DaemonOptions opt = options();
  opt.slots = 1;
  opt.tenant_cap = 1;
  Daemon daemon(opt);
  const std::uint64_t blocker = submitted_id(post(
      daemon, "/jobs",
      R"({"model":"zgb","width":16,"height":16,"t_end":1000000,"dt":1,)"
      R"("checkpoint_every":1,"tenant":"alice"})"));
  ASSERT_EQ(wait_for(daemon, blocker, "running"), "running");

  const HttpResponse denied = post(
      daemon, "/jobs",
      R"({"model":"zgb","width":16,"height":16,"t_end":2,"dt":1,"tenant":"alice"})");
  EXPECT_EQ(denied.status, 403) << denied.body;

  const HttpResponse other = post(
      daemon, "/jobs",
      R"({"model":"zgb","width":16,"height":16,"t_end":2,"dt":1,"tenant":"bob"})");
  EXPECT_EQ(other.status, 202) << other.body;
  post(daemon, "/jobs/" + std::to_string(blocker) + "/stop");
}

TEST_F(ServeDaemonTest, StopPreemptsAndStartResumesFromCheckpoint) {
  Daemon daemon(options());
  const std::uint64_t id = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, id, "running"), "running");
  // Give the worker a moment to write its first checkpoint.
  const fs::path ck = fs::path(data_dir_) / ("job-" + std::to_string(id)) /
                      kJobCheckpoint;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!fs::exists(ck) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(fs::exists(ck)) << "worker never checkpointed";

  EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/stop").status, 202);
  ASSERT_EQ(wait_for(daemon, id, "stopped"), "stopped");
  EXPECT_TRUE(fs::exists(ck)) << "preemption must retain the checkpoint";
  // 128+15: the worker yielded via graceful SIGTERM, not a crash.
  EXPECT_EQ(Value::parse(get(daemon, "/jobs/" + std::to_string(id)).body)
                .at("exit_code")
                .as_u64(),
            143u);

  // Double-stop on a finished job is a conflict, not a crash.
  EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/stop").status, 409);

  // start requeues and the worker resumes from the retained chain.
  EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(id) + "/start").status, 202);
  ASSERT_EQ(wait_for(daemon, id, "running"), "running");
  post(daemon, "/jobs/" + std::to_string(id) + "/stop");
  EXPECT_EQ(wait_for(daemon, id, "stopped"), "stopped");
}

TEST_F(ServeDaemonTest, StoppingAQueuedJobNeverRunsIt) {
  DaemonOptions opt = options();
  opt.slots = 1;
  Daemon daemon(opt);
  const std::uint64_t blocker = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, blocker, "running"), "running");
  const std::uint64_t queued = submitted_id(post(daemon, "/jobs", kQuickJob));
  EXPECT_EQ(post(daemon, "/jobs/" + std::to_string(queued) + "/stop").status,
            200);
  EXPECT_EQ(state_of(daemon, queued), "stopped");
  EXPECT_FALSE(fs::exists(fs::path(data_dir_) /
                          ("job-" + std::to_string(queued)) / kJobReport));
  post(daemon, "/jobs/" + std::to_string(blocker) + "/stop");
}

TEST_F(ServeDaemonTest, DrainRefusesNewWorkAndStopsRunners) {
  Daemon daemon(options());
  const std::uint64_t id = submitted_id(post(daemon, "/jobs", kBlockerJob));
  ASSERT_EQ(wait_for(daemon, id, "running"), "running");
  daemon.drain();
  EXPECT_EQ(post(daemon, "/jobs", kQuickJob).status, 503);
  EXPECT_NE(get(daemon, "/healthz").body.find("draining"), std::string::npos);
  daemon.stop();
  EXPECT_EQ(state_of(daemon, id), "stopped");
}

TEST_F(ServeDaemonTest, RestartOverDataDirRequeuesUnfinishedJobs) {
  // A job directory with a spec but no terminal-state marker is exactly
  // what a daemon crash leaves behind; a new daemon must pick it up.
  const std::string dir = data_dir_ + "/job-7";
  fs::create_directories(dir);
  const JobSpec spec = spec_of(kQuickJob);
  io::atomic_write_file(dir + "/" + kJobSpecFile, spec.to_json());

  Daemon daemon(options());
  EXPECT_EQ(wait_for(daemon, 7, "done"), "done");
  // Fresh ids continue past the recovered one.
  EXPECT_EQ(submitted_id(post(daemon, "/jobs", kQuickJob)), 8u);
}

TEST_F(ServeDaemonTest, RestartRecoversAJobSpecCarryingTheRetiredFastPath) {
  // The job.json an older daemon wrote, "fast_path" member included.
  const std::string dir = data_dir_ + "/job-3";
  fs::create_directories(dir);
  io::atomic_write_file(
      dir + "/" + kJobSpecFile,
      R"({"model":"zgb","algorithm":"pndca","width":16,"height":16,)"
      R"("t_end":2,"dt":1,"fast_path":true})");

  Daemon daemon(options());
  EXPECT_EQ(wait_for(daemon, 3, "done"), "done");
}

TEST_F(ServeDaemonTest, RestartLogsAndSkipsAnUnparsableJobSpec) {
  const std::string dir = data_dir_ + "/job-4";
  fs::create_directories(dir);
  io::atomic_write_file(dir + "/" + kJobSpecFile, R"({"model":"zgb","fast_path":"yes"})");
  const std::string log_path = data_dir_ + "/recover.jsonl";
  ASSERT_EQ(log::configure(log::Level::kWarn, log_path), "");
  {
    Daemon daemon(options());
    EXPECT_EQ(get(daemon, "/jobs/4").status, 404);
  }
  ASSERT_EQ(log::configure(log::Level::kWarn, ""), "");  // restore the default sink
  const std::string text = io::read_file(log_path);
  EXPECT_NE(text.find(R"("event":"job_unrecoverable")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("job":4)"), std::string::npos) << text;
  EXPECT_NE(text.find("fast_path"), std::string::npos) << "the error names the member";
}

TEST_F(ServeDaemonTest, StatsCountTheFleet) {
  Daemon daemon(options());
  const std::uint64_t id = submitted_id(post(daemon, "/jobs", kQuickJob));
  ASSERT_EQ(wait_for(daemon, id, "done"), "done") << job_record(daemon, id);
  const std::string stats_body = get(daemon, "/stats").body;
  const Value stats = Value::parse(stats_body);
  EXPECT_EQ(stats.at("done").as_u64(), 1u) << stats_body << "\n" << job_record(daemon, id);
  EXPECT_EQ(stats.at("failed").as_u64(), 0u) << stats_body << "\n" << job_record(daemon, id);
  const std::string list_body = get(daemon, "/jobs").body;
  const Value list = Value::parse(list_body);
  ASSERT_EQ(list.items().size(), 1u) << list_body;
  EXPECT_EQ(list.items()[0].at("state").as_string(), "done") << list_body;
}

}  // namespace
}  // namespace casurf::serve
