#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/http.hpp"
#include "serve/job.hpp"

namespace casurf::serve {

/// Lifecycle of a served job (docs/SERVING.md):
///
///   queued ──▶ running ──▶ done
///      │          │  ├───▶ failed       (usage error / retries exhausted)
///      │          │  └───▶ stopped      (preempted; checkpoint retained)
///      └─────────▶ stopped              (cancelled before it ever ran)
///
/// stopped and failed jobs can be requeued (POST /jobs/<id>/start); a
/// requeued job resumes from its checkpoint chain, so preemption costs at
/// most one sampling interval of work.
enum class JobState { kQueued, kRunning, kDone, kFailed, kStopped };

[[nodiscard]] const char* to_string(JobState s);

struct DaemonOptions {
  std::string runner;    ///< path to the casurf_run binary workers exec
  std::string data_dir;  ///< job directories live at data_dir/job-<id>
  std::uint16_t port = 0;        ///< HTTP listen port; 0 picks ephemeral
  unsigned slots = 2;            ///< jobs running concurrently
  std::size_t queue_cap = 64;    ///< queued jobs before POST /jobs → 429
  std::size_t tenant_cap = 16;   ///< live (queued+running) jobs per tenant → 403
  unsigned max_threads_per_job = 4;  ///< clamp on spec.threads (the quota)
  unsigned http_threads = 4;     ///< HTTP worker pool size
  std::size_t worker_log_cap = 1 << 20;  ///< bytes before worker.log rotates
                                         ///< to worker.log.1 (0 = unbounded)
};

/// The casurf_serve daemon as a library: an HTTP front end over a
/// priority job queue whose runner threads execute every job as its own
/// supervised casurf_run worker process. Workers checkpoint as they go;
/// a crashed worker is restarted from its checkpoint chain (worker-level
/// recovery, same taxonomy as casurf_run --supervise), a stopped one is
/// SIGTERMed so it checkpoints and yields, and a daemon restart over the
/// same data_dir requeues every job that never reached a terminal state.
///
/// Thread-safety: handle() may be called from any number of HTTP worker
/// threads; all shared state sits behind one mutex. Runner threads never
/// hold it across fork/exec/waitpid.
class Daemon {
 public:
  explicit Daemon(DaemonOptions opt);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const;

  /// Route one request. Public so tests can drive the API surface
  /// directly; the embedded HttpServer calls exactly this.
  [[nodiscard]] HttpResponse handle(const HttpRequest& req);

  /// Begin shutdown: refuse new work (503), deliver `sig` to every
  /// running worker (SIGTERM → checkpoint-and-yield), and stop handing
  /// queued jobs to runners. Idempotent; does not block.
  void drain(int sig = SIGTERM);

  /// drain() then wait: joins runner threads once their workers have
  /// exited (checkpoints flushed, exit states recorded) and shuts the
  /// HTTP server down. Run by the destructor as well.
  void stop();

 private:
  /// All mutable fields are guarded by mutex_ — including pid, which a
  /// runner thread publishes after fork and job_stop/drain read to signal
  /// the worker. spec/id/dir are immutable once the job is constructed.
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;  ///< submission order; FIFO within a priority
    JobSpec spec;
    std::string dir;
    JobState state = JobState::kQueued;
    bool stop_requested = false;
    std::uint64_t restarts = 0;
    int exit_code = -1;  ///< last worker exit (valid in terminal states)
    std::string error;   ///< human-readable failure reason
    pid_t pid = 0;       ///< running worker, 0 otherwise
    std::uint64_t submit_ns = 0;  ///< mono ns at (re)enqueue; queue-wait base
    std::uint64_t sched_ns = 0;   ///< mono ns a runner picked it up
    std::uint64_t harvested_trials = 0;     ///< run-report totals already
    std::uint64_t harvested_executed = 0;   ///< rolled into the registry (deltas
    std::uint64_t harvested_alarms = 0;     ///< only: a requeued job's report
    std::uint64_t harvested_trace_drops = 0;  ///< is cumulative)
  };

  /// Per-request telemetry handle() threads through route(): the
  /// normalised route label plus any backpressure verdict for the access
  /// log.
  struct RouteInfo {
    const char* route = "other";
    const char* backpressure = nullptr;  ///< "queue_full"|"draining"|"tenant_quota"
    unsigned retry_after = 0;
  };

  std::size_t recover_jobs();  // requeue non-terminal job dirs in data_dir
  void runner_main(unsigned runner);
  void run_job(Job& job);
  int supervise_worker(Job& job);  // one spawn+wait cycle; returns exit code
  void finish(Job& job, JobState state, int code, std::string error);
  void rotate_worker_log(const Job& job);  // between spawns only
  void harvest_report(Job& job);           // report deltas → registry
  void journal(const Job& job, std::string_view event,
               const std::function<void(obs::json::Writer&)>& fields = {});

  [[nodiscard]] Job* find_job(std::uint64_t id);
  [[nodiscard]] Job* pop_best_locked();
  [[nodiscard]] std::size_t tenant_live_locked(const std::string& tenant) const;
  [[nodiscard]] unsigned retry_after_locked() const;

  HttpResponse route(const HttpRequest& req, RouteInfo& info);
  HttpResponse submit(const HttpRequest& req, RouteInfo& info);
  HttpResponse job_status(const Job& job);  // caller holds mutex_
  HttpResponse job_stop(std::uint64_t id);
  HttpResponse job_start(std::uint64_t id, RouteInfo& info);
  HttpResponse job_file(std::uint64_t id, const std::string& name,
                        const char* content_type);
  HttpResponse list_jobs();
  HttpResponse stats();
  HttpResponse metrics();

  DaemonOptions opt_;
  obs::MetricsRegistry registry_;
  /// Daemon-side trace: one lane per runner thread carrying a serve/job
  /// span per supervised worker (args.step = job id). Written to
  /// data_dir/trace.json at stop(); together with the workers' own traces
  /// (JobSpec::trace) and their "job-<id>" trace ids, `casurf_report
  /// --merge-traces` stitches the fleet into one clock-aligned timeline.
  obs::Tracer trace_;
  std::string journal_path_;  ///< daemon-level events.jsonl in data_dir
  std::atomic<std::uint64_t> next_req_{1};  ///< access-log request ids

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes runners: queue grew / draining
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::vector<Job*> queue_;  ///< pending jobs; scanned for best (prio, seq)
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t done_ = 0, failed_ = 0, stopped_ = 0;
  bool draining_ = false;

  std::vector<std::thread> runners_;
  std::unique_ptr<HttpServer> server_;  ///< last member: handle() needs the rest
};

}  // namespace casurf::serve
