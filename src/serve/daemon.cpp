#include "serve/daemon.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "obs/prom.hpp"
#include "serve/events.hpp"
#include "serve/spawn.hpp"
#include "util/exit_codes.hpp"
#include "util/log.hpp"

namespace casurf::serve {
namespace {

namespace fs = std::filesystem;
using obs::json::Value;
using obs::json::Writer;

/// Terminal-state marker inside a job directory: written once when the job
/// reaches done/failed/stopped, consumed by daemon-restart recovery (a job
/// dir without one was in flight when the daemon died → requeue + resume).
constexpr const char* kExitFile = "exit.json";

/// Daemon-level lifecycle journal in data_dir (per-job journals live in
/// each job directory under kJobEvents).
constexpr const char* kDaemonEvents = "events.jsonl";

constexpr const char* kLogComponent = "serve.daemon";

HttpResponse json_response(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

HttpResponse error_response(int status, std::string_view message) {
  std::string body = R"({"error":)";
  obs::json::append_quoted(body, message);
  body += '}';
  return json_response(status, std::move(body));
}

bool parse_id(std::string_view s, std::uint64_t& id) {
  if (s.empty() || s.size() > 18) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), id);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// The worker half of spawn_supervised: point stdout+stderr at the job
/// log and exec the runner. Runs between fork and _Exit in the child of a
/// multithreaded parent, so only async-signal-safe calls — every string
/// here was materialised before the fork.
int exec_worker(const char* log_path, char* const* argv) {
  const int log_fd = ::open(log_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    if (log_fd > STDERR_FILENO) ::close(log_fd);
  }
  ::execv(argv[0], argv);
  const char* msg = "casurf_serve: exec failed: ";
  (void)!::write(STDERR_FILENO, msg, std::strlen(msg));
  const char* err = std::strerror(errno);
  (void)!::write(STDERR_FILENO, err, std::strlen(err));
  (void)!::write(STDERR_FILENO, "\n", 1);
  return exit_code::kExecFailed;
}

std::string describe_exit(int code) {
  if (code >= 128) {
    return "worker ended by signal " + std::to_string(code - 128);
  }
  switch (code) {
    case exit_code::kUsage:
      return "worker rejected the configuration (exit 2)";
    case exit_code::kRestoreFailed:
      return "checkpoint restore failed (exit 3)";
    case exit_code::kExecFailed:
      return "could not exec the worker binary (exit 127)";
    default:
      return "worker exited with code " + std::to_string(code);
  }
}

/// Sum RSS and CPU of one live worker from /proc/<pid> (Linux only; any
/// parse trouble — racing exit included — just skips the worker).
bool sample_proc(pid_t pid, double& rss_bytes, double& cpu_seconds) {
  try {
    const std::string base = "/proc/" + std::to_string(pid);
    const std::string statm = io::read_file(base + "/statm");
    const std::size_t sp = statm.find(' ');
    if (sp == std::string::npos) return false;
    char* end = nullptr;
    const double pages = std::strtod(statm.c_str() + sp + 1, &end);
    if (end == statm.c_str() + sp + 1) return false;
    rss_bytes = pages * static_cast<double>(::sysconf(_SC_PAGESIZE));

    // stat: fields after the last ')' start at state (field 3); utime and
    // stime are overall fields 14 and 15.
    const std::string stat = io::read_file(base + "/stat");
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos) return false;
    double utime = 0, stime = 0;
    int field = 2;  // ')' ends field 2 (comm)
    const char* p = stat.c_str() + paren + 1;
    while (*p != '\0' && field < 15) {
      while (*p == ' ') ++p;
      const char* tok = p;
      while (*p != '\0' && *p != ' ') ++p;
      ++field;
      if (field == 14) utime = std::strtod(tok, nullptr);
      if (field == 15) stime = std::strtod(tok, nullptr);
    }
    if (field < 15) return false;
    cpu_seconds = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kStopped:
      return "stopped";
  }
  return "unknown";
}

Daemon::Daemon(DaemonOptions opt) : opt_(std::move(opt)) {
  if (opt_.runner.empty()) {
    throw std::runtime_error("daemon: runner binary path is required");
  }
  if (opt_.slots == 0) opt_.slots = 1;
  fs::create_directories(opt_.data_dir);
  journal_path_ = opt_.data_dir + "/" + kDaemonEvents;
  registry_.gauge("casurf_build_info").set(1);
  const std::size_t recovered = recover_jobs();
  runners_.reserve(opt_.slots);
  for (unsigned i = 0; i < opt_.slots; ++i) {
    // Lane names are set before the runner threads exist, so the tracer's
    // name map is never written concurrently with a runner's recording.
    trace_.set_thread_name(i, "runner" + std::to_string(i));
    runners_.emplace_back([this, i] { runner_main(i); });
  }
  server_ = std::make_unique<HttpServer>(
      opt_.port, [this](const HttpRequest& req) { return handle(req); },
      opt_.http_threads);
  append_event(journal_path_, "daemon_started", [&](Writer& w) {
    w.key("slots"), w.u64(opt_.slots);
    w.key("port"), w.u64(server_->port());
    w.key("recovered"), w.u64(recovered);
  });
  log::Event(log::Level::kInfo, kLogComponent, "daemon_started")
      .u64("slots", opt_.slots)
      .u64("port", server_->port())
      .u64("recovered", recovered)
      .str("data_dir", opt_.data_dir);
}

Daemon::~Daemon() { stop(); }

std::uint16_t Daemon::port() const { return server_->port(); }

std::size_t Daemon::recover_jobs() {
  // A daemon restarted over an existing data_dir owes its tenants the jobs
  // that were live when it went down: any job-<id> directory without a
  // terminal-state marker is requeued, and the worker's --resume picks the
  // run up from its checkpoint chain exactly like casurf_run --supervise.
  std::size_t recovered = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt_.data_dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t id = 0;
    if (name.rfind("job-", 0) != 0 || !parse_id(name.substr(4), id)) continue;
    if (fs::exists(entry.path() / kExitFile)) continue;
    JobSpec spec;
    try {
      spec = JobSpec::from_json(Value::parse(
          io::read_file((entry.path() / kJobSpecFile).string())));
    } catch (const std::exception& e) {
      // A half-created directory, or a spec this version cannot parse:
      // nothing recoverable, but the job must not vanish without a trace.
      log::Event(log::Level::kWarn, kLogComponent, "job_unrecoverable")
          .u64("job", id)
          .str("error", e.what());
      continue;
    }
    auto job = std::make_unique<Job>();
    job->id = id;
    job->seq = next_seq_++;
    job->spec = std::move(spec);
    job->dir = entry.path().string();
    job->submit_ns = obs::now_ns();
    queue_.push_back(job.get());
    registry_
        .counter(obs::prom::series("casurf_job_restarts_total",
                                   {{"cause", "daemon_restart"}}))
        .add();
    journal(*job, "restarted",
            [](Writer& w) { w.key("cause"), w.string("daemon_restart"); });
    log::Event(log::Level::kInfo, kLogComponent, "job_recovered")
        .u64("job", job->id)
        .str("tenant", job->spec.tenant);
    jobs_.emplace(id, std::move(job));
    next_id_ = std::max(next_id_, id + 1);
    ++recovered;
  }
  return recovered;
}

void Daemon::runner_main(unsigned runner) {
  // One serve/job span per supervised worker on this runner's lane; the
  // job id rides in args.step, matching the worker's "job-<id>" trace id.
  obs::Phase job_phase("serve/job", runner);
  job_phase.attach({.tracer = &trace_});
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (draining_) return;
      job = pop_best_locked();
      if (job == nullptr) continue;
      job->state = JobState::kRunning;
      job->sched_ns = obs::now_ns();
      if (job->submit_ns != 0 && job->sched_ns >= job->submit_ns) {
        registry_.histogram("casurf_job_queue_wait_ns")
            .record(job->sched_ns - job->submit_ns);
      }
    }
    journal(*job, "scheduled");
    log::Event(log::Level::kDebug, kLogComponent, "job_scheduled")
        .u64("job", job->id)
        .i64("priority", job->spec.priority);
    {
      const obs::ScopedPhase span(job_phase, 0.0, job->id);
      run_job(*job);
    }
  }
}

Daemon::Job* Daemon::pop_best_locked() {
  if (queue_.empty()) return nullptr;
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Job& a = *queue_[i];
    const Job& b = *queue_[best];
    if (a.spec.priority > b.spec.priority ||
        (a.spec.priority == b.spec.priority && a.seq < b.seq)) {
      best = i;
    }
  }
  Job* job = queue_[best];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  return job;
}

unsigned Daemon::retry_after_locked() const {
  // A draining daemon never accepts again: tell clients to go far away.
  // Otherwise scale the advertised backoff with how many scheduling turns
  // the backlog represents.
  if (draining_) return 30;
  const std::size_t turns = queue_.size() / std::max(1u, opt_.slots);
  return static_cast<unsigned>(std::clamp<std::size_t>(turns, 1, 30));
}

void Daemon::rotate_worker_log(const Job& job) {
  // Only called by the runner that owns the job, between worker spawns, so
  // no live writer holds the file. A worker that outgrew the cap mid-run
  // keeps appending to its (renamed) fd — rotation is about bounding what
  // the NEXT attempt inherits and what GET /jobs/<id>/log serves.
  if (opt_.worker_log_cap == 0) return;
  std::error_code ec;
  const fs::path log_path = fs::path(job.dir) / kJobLog;
  const std::uintmax_t size = fs::file_size(log_path, ec);
  if (ec || size <= opt_.worker_log_cap) return;
  fs::rename(log_path, fs::path(job.dir) / kJobLogRotated, ec);
  if (ec) return;
  registry_.counter("casurf_job_log_rotations_total").add();
  journal(job, "log_rotated", [&](Writer& w) { w.key("bytes"), w.u64(size); });
  log::Event(log::Level::kDebug, kLogComponent, "worker_log_rotated")
      .u64("job", job.id)
      .u64("bytes", size);
}

int Daemon::supervise_worker(Job& job) {
  // Resume whenever a checkpoint chain exists — first attempt included, so
  // a requeued (preempted) job and daemon-restart recovery both continue
  // where the worker last checkpointed rather than starting over.
  bool resume = fs::exists(fs::path(job.dir) / kJobCheckpoint);
  const std::string log_path = job.dir + "/" + kJobLog;
  bool announced_running = false;

  for (;;) {
    rotate_worker_log(job);
    const std::vector<std::string> args =
        job.spec.to_argv(opt_.runner, job.dir, resume);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    // spawn_supervised wants a slot it can publish the pid into from the
    // fork window; the daemon's readers only ever look at job.pid under
    // the mutex, so a local slot suffices and the window is closed by the
    // locked re-check right below.
    volatile pid_t slot = 0;
    const pid_t pid = spawn_supervised(
        &slot, nullptr,
        [&] { return exec_worker(log_path.c_str(), argv.data()); });
    if (pid < 0) {
      // fork can fail transiently (EAGAIN under load); that is a retryable
      // condition like a crash, not a verdict on the job.
      std::uint64_t restarts;
      {
        std::lock_guard lock(mutex_);
        job.error = "fork failed: " + std::string(std::strerror(errno));
        if (job.restarts >= job.spec.retries) {
          log::Event(log::Level::kError, kLogComponent, "restart_policy")
              .u64("job", job.id)
              .str("verdict", "give_up")
              .str("cause", "fork_failed");
          return exit_code::kExecFailed;
        }
        restarts = ++job.restarts;
      }
      registry_
          .counter(obs::prom::series("casurf_job_restarts_total",
                                     {{"cause", "fork_failed"}}))
          .add();
      journal(job, "restarted", [&](Writer& w) {
        w.key("cause"), w.string("fork_failed");
        w.key("attempt"), w.u64(restarts);
      });
      static log::RateLimit fork_limit(1.0, 5.0);
      log::Event(log::Level::kWarn, kLogComponent, "restart_policy",
                 &fork_limit)
          .u64("job", job.id)
          .str("verdict", "retry")
          .str("cause", "fork_failed")
          .u64("attempt", restarts);
      std::this_thread::sleep_for(std::chrono::milliseconds(50) * restarts);
      continue;
    }
    std::uint64_t attempt;
    {
      // Publish the worker pid, and close the race spawn_supervised cannot
      // see: a stop or drain that landed before this point found pid == 0
      // and had nobody to signal. Re-check now that the pid is real and
      // deliver the signal by hand.
      std::lock_guard lock(mutex_);
      job.error.clear();
      job.pid = pid;
      attempt = job.restarts;
      if (job.stop_requested || draining_) ::kill(pid, SIGTERM);
    }
    journal(job, "spawned", [&](Writer& w) {
      w.key("pid"), w.i64(pid);
      w.key("attempt"), w.u64(attempt);
    });
    if (!announced_running) {
      announced_running = true;
      journal(job, "running");
    }
    log::Event(log::Level::kDebug, kLogComponent, "worker_spawned")
        .u64("job", job.id)
        .i64("pid", pid)
        .u64("attempt", attempt);

    int status = 0;
    int wait_errno = 0;
    while (::waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        wait_errno = errno;
        break;
      }
    }
    std::uint64_t restarts = 0;
    const char* restart_cause = nullptr;
    int exit_code = 0;
    {
      std::unique_lock lock(mutex_);
      job.pid = 0;
      if (wait_errno != 0) {
        job.error = "waitpid failed: " + std::string(std::strerror(wait_errno));
        return exit_code::kExecFailed;
      }
      const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                       : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                             : exit_code::kExecFailed;
      exit_code = code;

      if (code == exit_code::kOk || code == exit_code::kUsage ||
          code == exit_code::kExecFailed) {
        return code;
      }
      if (job.stop_requested || draining_) {
        log::Event(log::Level::kInfo, kLogComponent, "restart_policy")
            .u64("job", job.id)
            .str("verdict", "yield")
            .i64("exit", code);
        return code;  // deliberate yield
      }
      if (code == exit_code::kRestoreFailed) {
        // Same policy as casurf_run --supervise: a checkpoint that cannot
        // be restored gets one clean restart from t = 0 instead of a
        // futile resume loop. If the fresh start also fails we give up.
        if (!resume) {
          log::Event(log::Level::kWarn, kLogComponent, "restart_policy")
              .u64("job", job.id)
              .str("verdict", "give_up")
              .str("cause", "restore_failed");
          return code;
        }
        resume = false;
        restarts = ++job.restarts;
        restart_cause = "restore_failed";
      } else {
        // Crash (signal, exit 1, unforwarded SIGTERM...):
        // restart from the checkpoint chain until the retry budget is
        // spent.
        if (job.restarts >= job.spec.retries) {
          log::Event(log::Level::kWarn, kLogComponent, "restart_policy")
              .u64("job", job.id)
              .str("verdict", "give_up")
              .str("cause", "retries_exhausted")
              .i64("exit", code);
          return code;
        }
        restarts = ++job.restarts;
        restart_cause = "crash";
      }
    }
    registry_
        .counter(obs::prom::series("casurf_job_restarts_total",
                                   {{"cause", restart_cause}}))
        .add();
    journal(job, "restarted", [&](Writer& w) {
      w.key("cause"), w.string(restart_cause);
      w.key("exit"), w.i64(exit_code);
      w.key("attempt"), w.u64(restarts);
    });
    log::Event(log::Level::kWarn, kLogComponent, "restart_policy")
        .u64("job", job.id)
        .str("verdict",
             restart_cause == std::string_view("restore_failed")
                 ? "clean_restart"
                 : "resume")
        .str("cause", restart_cause)
        .i64("exit", exit_code)
        .u64("attempt", restarts);
    if (restart_cause != std::string_view("restore_failed")) {
      resume = fs::exists(fs::path(job.dir) / kJobCheckpoint);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20) * restarts);
  }
}

void Daemon::run_job(Job& job) {
  const int code = supervise_worker(job);
  rotate_worker_log(job);
  harvest_report(job);
  const bool yielded = [&] {
    std::lock_guard lock(mutex_);
    return job.stop_requested || draining_;
  }();
  if (code == exit_code::kOk) {
    finish(job, JobState::kDone, code, {});
  } else if (yielded && code >= 128) {
    finish(job, JobState::kStopped, code, {});
  } else {
    std::string why = job.error.empty() ? describe_exit(code) : job.error;
    if (code != exit_code::kUsage && code != exit_code::kExecFailed &&
        job.restarts >= job.spec.retries) {
      why += " after " + std::to_string(job.restarts) + " restart(s)";
    }
    finish(job, JobState::kFailed, code, std::move(why));
  }
}

void Daemon::harvest_report(Job& job) {
  // Roll the worker's final run-report up into fleet-level series. Reports
  // are trajectory-cumulative (a resumed worker continues its counters),
  // and a requeued job re-finishes with a newer report — so only the delta
  // beyond what this job already contributed is added.
  std::uint64_t trials = 0, executed = 0, alarms = 0;
  std::uint64_t trace_drops = 0;
  double wall = 0;
  try {
    const Value report = Value::parse(io::read_file(job.dir + "/" + kJobReport));
    if (const Value* counters = report.find("counters")) {
      trials = static_cast<std::uint64_t>(counters->number_or("trials", 0));
      executed = static_cast<std::uint64_t>(counters->number_or("executed", 0));
    }
    if (const Value* run = report.find("run")) {
      wall = run->number_or("wall_seconds", 0);
      trace_drops = static_cast<std::uint64_t>(run->number_or("trace_drops", 0));
    }
    if (const Value* drift = report.find("drift"); drift && drift->is_object()) {
      if (const Value* list = drift->find("alarms")) {
        alarms = list->items().size();
      }
    }
  } catch (const std::exception&) {
    return;  // no report yet (never sampled, or usage failure)
  }
  const auto delta = [](std::uint64_t now, std::uint64_t& harvested) {
    const std::uint64_t d = now > harvested ? now - harvested : 0;
    harvested = std::max(harvested, now);
    return d;
  };
  std::uint64_t d_trials, d_executed, d_alarms, d_trace_drops;
  {
    std::lock_guard lock(mutex_);
    d_trials = delta(trials, job.harvested_trials);
    d_executed = delta(executed, job.harvested_executed);
    d_alarms = delta(alarms, job.harvested_alarms);
    d_trace_drops = delta(trace_drops, job.harvested_trace_drops);
  }
  if (d_trials != 0) registry_.counter("casurf_worker_trials_total").add(d_trials);
  if (d_executed != 0) {
    registry_.counter("casurf_worker_reactions_total").add(d_executed);
  }
  if (d_alarms != 0) {
    registry_.counter("casurf_worker_drift_alarms_total").add(d_alarms);
  }
  if (d_trace_drops != 0) {
    registry_.counter("casurf_worker_trace_drops_total").add(d_trace_drops);
  }
  if (wall > 0 && trials > 0) {
    registry_.gauge("casurf_job_last_trials_per_second")
        .set(static_cast<double>(trials) / wall);
  }
}

void Daemon::finish(Job& job, JobState state, int code, std::string error) {
  // The marker is written before the state flips so a daemon crash in
  // between errs toward requeueing a finished job (idempotent: the worker
  // resumes a complete checkpoint and exits immediately) rather than
  // losing an unfinished one.
  Writer w;
  w.begin_object();
  w.key("state"), w.string(to_string(state));
  w.key("exit_code"), w.i64(code);
  if (!error.empty()) w.key("error"), w.string(error);
  w.end_object();
  try {
    io::atomic_write_file(job.dir + "/" + kExitFile, std::move(w).str());
  } catch (const std::exception&) {
    // Recovery marker only; the in-memory state below stays authoritative.
  }
  const std::string why = error;  // journal copy; job.error is moved below
  const char* event = state == JobState::kDone     ? "finished"
                      : state == JobState::kFailed ? "failed"
                                                   : "preempted";
  std::uint64_t duration_ns = 0;
  {
    std::lock_guard lock(mutex_);
    job.state = state;
    job.exit_code = code;
    job.error = std::move(error);
    job.stop_requested = false;
    if (state == JobState::kDone) ++done_;
    if (state == JobState::kFailed) ++failed_;
    if (state == JobState::kStopped) ++stopped_;
    if (job.sched_ns != 0) duration_ns = obs::now_ns() - job.sched_ns;
    // Recorded under the state-flipping lock so a scrape that sees the
    // terminal state also sees this finish's samples (reconciliation).
    if (duration_ns != 0) {
      registry_.histogram("casurf_job_duration_ns").record(duration_ns);
    }
    if (state == JobState::kStopped) {
      registry_.counter("casurf_job_preemptions_total").add();
    }
    // Journaled under the same lock: a racing requeue (POST /jobs/<id>/start
    // observes the terminal state under this mutex) must find its
    // "restarted" record AFTER this one, so every job's events.jsonl reads
    // as a valid lifecycle chain.
    journal(job, event, [&](Writer& jw) {
      jw.key("exit"), jw.i64(code);
      if (!why.empty()) jw.key("error"), jw.string(why);
    });
  }
  log::Event(state == JobState::kFailed ? log::Level::kWarn : log::Level::kInfo,
             kLogComponent, "job_finished")
      .u64("job", job.id)
      .str("state", to_string(state))
      .i64("exit", code)
      .f64("seconds", static_cast<double>(duration_ns) / 1e9)
      .str("error", why);
}

void Daemon::journal(const Job& job, std::string_view event,
                     const std::function<void(Writer&)>& fields) {
  append_event(job.dir + "/" + kJobEvents, event, [&](Writer& w) {
    w.key("job"), w.u64(job.id);
    if (fields) fields(w);
  });
}

void Daemon::drain(int sig) {
  bool first = false;
  std::size_t signalled = 0;
  {
    std::lock_guard lock(mutex_);
    first = !draining_;
    draining_ = true;
    work_cv_.notify_all();
    for (const auto& [id, job] : jobs_) {
      const pid_t pid = job->pid;
      if (job->state == JobState::kRunning && pid > 0) {
        ::kill(pid, sig);
        ++signalled;
      }
    }
  }
  if (first) {
    append_event(journal_path_, "draining", [&](Writer& w) {
      w.key("signal"), w.i64(sig);
      w.key("signalled"), w.u64(signalled);
    });
    log::Event(log::Level::kInfo, kLogComponent, "draining")
        .i64("signal", sig)
        .u64("signalled", signalled);
  }
}

void Daemon::stop() {
  drain(SIGTERM);
  const bool had_runners = !runners_.empty();
  for (std::thread& t : runners_) {
    if (t.joinable()) t.join();
  }
  runners_.clear();
  if (server_) server_->stop();
  // Runner lanes are quiet now (threads joined): export the daemon-side
  // timeline. Skipped when nothing recorded.
  if (trace_.total_recorded() > 0) {
    try {
      trace_.write(opt_.data_dir + "/trace.json");
    } catch (const std::exception&) {
      // Best-effort artifact; shutdown must not fail on a full disk.
    }
  }
  if (had_runners) {
    append_event(journal_path_, "daemon_stopped");
    log::Event(log::Level::kInfo, kLogComponent, "daemon_stopped");
  }
}

// ── HTTP surface ────────────────────────────────────────────────────────

HttpResponse Daemon::handle(const HttpRequest& req) {
  const std::uint64_t rid = next_req_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t t0 = obs::now_ns();
  RouteInfo info;
  HttpResponse resp;
  try {
    resp = route(req, info);
  } catch (const std::exception& e) {
    resp = error_response(500, e.what());
  }
  const std::uint64_t dur_ns = obs::now_ns() - t0;
  const std::string status = std::to_string(resp.status);
  registry_
      .counter(obs::prom::series(
          "casurf_http_requests_total",
          {{"method", req.method}, {"route", info.route}, {"status", status}}))
      .add();
  registry_
      .histogram(obs::prom::series("casurf_http_request_duration_ns",
                                   {{"route", info.route}}))
      .record(dur_ns);
  const log::Level level = resp.status >= 500 ? log::Level::kWarn
                           : info.backpressure != nullptr ? log::Level::kInfo
                                                          : log::Level::kDebug;
  log::Event ev(level, "serve.http", "request");
  ev.u64("id", rid)
      .str("method", req.method)
      .str("target", req.target)
      .i64("status", resp.status)
      .f64("ms", static_cast<double>(dur_ns) / 1e6)
      .u64("bytes", resp.body.size());
  if (info.backpressure != nullptr) {
    ev.str("backpressure", info.backpressure)
        .u64("retry_after", info.retry_after);
  }
  return resp;
}

HttpResponse Daemon::route(const HttpRequest& req, RouteInfo& info) {
  const std::string_view target(req.target);
  if (target == "/healthz") {
    info.route = "/healthz";
    if (req.method != "GET") return error_response(405, "method not allowed");
    std::lock_guard lock(mutex_);
    return json_response(200, draining_ ? R"({"ok":true,"draining":true})"
                                        : R"({"ok":true})");
  }
  if (target == "/stats") {
    info.route = "/stats";
    if (req.method != "GET") return error_response(405, "method not allowed");
    return stats();
  }
  if (target == "/metrics") {
    info.route = "/metrics";
    if (req.method != "GET") return error_response(405, "method not allowed");
    return metrics();
  }
  if (target == "/jobs") {
    info.route = "/jobs";
    if (req.method == "POST") return submit(req, info);
    if (req.method == "GET") return list_jobs();
    return error_response(405, "method not allowed");
  }
  if (target.rfind("/jobs/", 0) == 0) {
    std::string_view rest = target.substr(6);
    std::string_view suffix;
    if (const auto slash = rest.find('/'); slash != std::string_view::npos) {
      suffix = rest.substr(slash + 1);
      rest = rest.substr(0, slash);
    }
    std::uint64_t id = 0;
    if (!parse_id(rest, id)) return error_response(404, "no such job");
    if (suffix.empty()) {
      info.route = "/jobs/{id}";
      if (req.method != "GET") return error_response(405, "method not allowed");
      std::lock_guard lock(mutex_);
      Job* job = find_job(id);
      if (job == nullptr) return error_response(404, "no such job");
      return job_status(*job);
    }
    if (suffix == "stop") {
      info.route = "/jobs/{id}/stop";
      if (req.method != "POST") return error_response(405, "method not allowed");
      return job_stop(id);
    }
    if (suffix == "start") {
      info.route = "/jobs/{id}/start";
      if (req.method != "POST") return error_response(405, "method not allowed");
      return job_start(id, info);
    }
    if (req.method != "GET") return error_response(405, "method not allowed");
    if (suffix == "report") {
      info.route = "/jobs/{id}/report";
      return job_file(id, kJobReport, "application/json");
    }
    if (suffix == "heatmap") {
      info.route = "/jobs/{id}/heatmap";
      return job_file(id, std::string(kJobHeatmapPrefix) + ".json",
                      "application/json");
    }
    if (suffix == "drift") {
      info.route = "/jobs/{id}/drift";
      return job_file(id, kJobDrift, "application/json");
    }
    if (suffix == "csv") {
      info.route = "/jobs/{id}/csv";
      return job_file(id, kJobCsv, "text/csv");
    }
    if (suffix == "log") {
      info.route = "/jobs/{id}/log";
      return job_file(id, kJobLog, "text/plain");
    }
    if (suffix == "trace") {
      info.route = "/jobs/{id}/trace";
      return job_file(id, kJobTrace, "application/json");
    }
    return error_response(404, "unknown job resource");
  }
  return error_response(404, "unknown path");
}

HttpResponse Daemon::submit(const HttpRequest& req, RouteInfo& info) {
  JobSpec spec;
  try {
    spec = JobSpec::from_json(Value::parse(req.body));
  } catch (const std::exception& e) {
    return error_response(400, e.what());
  }
  spec.threads = std::min(spec.threads, std::max(1u, opt_.max_threads_per_job));

  Job* job = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (draining_) {
      info.backpressure = "draining";
      info.retry_after = retry_after_locked();
      registry_
          .counter(obs::prom::series("casurf_http_backpressure_total",
                                     {{"reason", "draining"}}))
          .add();
      HttpResponse resp = error_response(503, "daemon is draining");
      resp.extra_headers.emplace_back("Retry-After",
                                      std::to_string(info.retry_after));
      return resp;
    }
    if (queue_.size() >= opt_.queue_cap) {
      info.backpressure = "queue_full";
      info.retry_after = retry_after_locked();
      registry_
          .counter(obs::prom::series("casurf_http_backpressure_total",
                                     {{"reason", "queue_full"}}))
          .add();
      HttpResponse resp = error_response(429, "job queue is full");
      resp.extra_headers.emplace_back("Retry-After",
                                      std::to_string(info.retry_after));
      return resp;
    }
    if (tenant_live_locked(spec.tenant) >= opt_.tenant_cap) {
      info.backpressure = "tenant_quota";
      registry_
          .counter(obs::prom::series("casurf_http_backpressure_total",
                                     {{"reason", "tenant_quota"}}))
          .add();
      return error_response(
          403, "tenant \"" + spec.tenant + "\" is at its job quota");
    }
    auto owned = std::make_unique<Job>();
    job = owned.get();
    job->id = next_id_++;
    job->seq = next_seq_++;
    job->spec = std::move(spec);
    job->dir = opt_.data_dir + "/job-" + std::to_string(job->id);
    jobs_.emplace(job->id, std::move(owned));
  }

  try {
    fs::create_directories(job->dir);
    if (!job->spec.model_text.empty()) {
      io::atomic_write_file(job->dir + "/" + kJobModelFile,
                            job->spec.model_text);
    }
    io::atomic_write_file(job->dir + "/" + kJobSpecFile, job->spec.to_json());
  } catch (const std::exception& e) {
    std::lock_guard lock(mutex_);
    job->state = JobState::kFailed;
    job->error = e.what();
    ++failed_;
    return error_response(500, job->error);
  }

  HttpResponse resp;
  {
    std::lock_guard lock(mutex_);
    job->submit_ns = obs::now_ns();
    // Journal before the queue push: once enqueued a runner can pick the
    // job up and journal "scheduled" the moment we unlock.
    journal(*job, "submitted", [&](Writer& w) {
      w.key("tenant"), w.string(job->spec.tenant);
      w.key("priority"), w.i64(job->spec.priority);
    });
    queue_.push_back(job);
    work_cv_.notify_one();
    resp = job_status(*job);
  }
  registry_.counter("casurf_job_submissions_total").add();
  log::Event(log::Level::kInfo, kLogComponent, "job_submitted")
      .u64("job", job->id)
      .str("tenant", job->spec.tenant)
      .i64("priority", job->spec.priority);
  return resp;
}

HttpResponse Daemon::job_status(const Job& job) {
  Writer w;
  w.begin_object();
  w.key("id"), w.u64(job.id);
  w.key("tenant"), w.string(job.spec.tenant);
  w.key("state"), w.string(to_string(job.state));
  w.key("priority"), w.i64(job.spec.priority);
  w.key("restarts"), w.u64(job.restarts);
  if (job.state == JobState::kDone || job.state == JobState::kFailed ||
      job.state == JobState::kStopped) {
    w.key("exit_code"), w.i64(job.exit_code);
  }
  if (!job.error.empty()) w.key("error"), w.string(job.error);
  // Progress straight from the worker's latest report snapshot — written
  // atomically every sample, so a torn read is impossible and the daemon
  // never has to interrogate a live worker.
  try {
    const Value report =
        Value::parse(io::read_file(job.dir + "/" + kJobReport));
    if (const Value* counters = report.find("counters")) {
      const double t = counters->number_or("time", 0);
      w.key("time"), w.number(t);
      w.key("progress"),
          w.number(std::min(1.0, job.spec.t_end > 0 ? t / job.spec.t_end : 0));
    }
  } catch (const std::exception&) {
    // No report yet (job still queued, or worker hasn't sampled).
  }
  w.end_object();
  const int status = job.state == JobState::kQueued ? 202 : 200;
  return json_response(status, std::move(w).str());
}

HttpResponse Daemon::job_stop(std::uint64_t id) {
  bool cancelled = false;
  const Job* journal_job = nullptr;
  HttpResponse resp;
  {
    std::lock_guard lock(mutex_);
    Job* job = find_job(id);
    if (job == nullptr) return error_response(404, "no such job");
    switch (job->state) {
      case JobState::kQueued: {
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
        job->state = JobState::kStopped;
        job->exit_code = 0;
        ++stopped_;
        cancelled = true;
        journal_job = job;
        journal(*job, "cancelled");  // under the state-flipping lock
        resp = job_status(*job);
        break;
      }
      case JobState::kRunning: {
        job->stop_requested = true;
        const pid_t pid = job->pid;
        // pid == 0 means the runner is between fork and publication; its
        // post-publication re-check sees stop_requested and signals then.
        if (pid > 0) ::kill(pid, SIGTERM);
        resp = job_status(*job);
        resp.status = 202;
        break;
      }
      default:
        return error_response(409, "job already finished");
    }
  }
  if (cancelled && journal_job != nullptr) {
    log::Event(log::Level::kInfo, kLogComponent, "job_cancelled")
        .u64("job", journal_job->id);
  }
  return resp;
}

HttpResponse Daemon::job_start(std::uint64_t id, RouteInfo& info) {
  Job* started = nullptr;
  HttpResponse resp;
  {
    std::lock_guard lock(mutex_);
    if (draining_) {
      info.backpressure = "draining";
      info.retry_after = retry_after_locked();
      registry_
          .counter(obs::prom::series("casurf_http_backpressure_total",
                                     {{"reason", "draining"}}))
          .add();
      HttpResponse r = error_response(503, "daemon is draining");
      r.extra_headers.emplace_back("Retry-After",
                                   std::to_string(info.retry_after));
      return r;
    }
    Job* job = find_job(id);
    if (job == nullptr) return error_response(404, "no such job");
    if (job->state != JobState::kStopped && job->state != JobState::kFailed) {
      return error_response(409, "job is not stopped or failed");
    }
    if (tenant_live_locked(job->spec.tenant) >= opt_.tenant_cap) {
      info.backpressure = "tenant_quota";
      registry_
          .counter(obs::prom::series("casurf_http_backpressure_total",
                                     {{"reason", "tenant_quota"}}))
          .add();
      return error_response(
          403, "tenant \"" + job->spec.tenant + "\" is at its job quota");
    }
    if (queue_.size() >= opt_.queue_cap) {
      info.backpressure = "queue_full";
      info.retry_after = retry_after_locked();
      registry_
          .counter(obs::prom::series("casurf_http_backpressure_total",
                                     {{"reason", "queue_full"}}))
          .add();
      HttpResponse r = error_response(429, "job queue is full");
      r.extra_headers.emplace_back("Retry-After",
                                   std::to_string(info.retry_after));
      return r;
    }
    if (job->state == JobState::kStopped) --stopped_;
    if (job->state == JobState::kFailed) --failed_;
    job->state = JobState::kQueued;
    job->stop_requested = false;
    job->restarts = 0;
    job->error.clear();
    job->seq = next_seq_++;
    job->submit_ns = obs::now_ns();
    std::error_code ec;
    fs::remove(fs::path(job->dir) / kExitFile, ec);
    // Journal before the queue push (same ordering argument as submit()).
    journal(*job, "restarted",
            [](Writer& w) { w.key("cause"), w.string("requeue"); });
    queue_.push_back(job);
    work_cv_.notify_one();
    started = job;
    resp = job_status(*job);
  }
  registry_
      .counter(obs::prom::series("casurf_job_restarts_total",
                                 {{"cause", "requeue"}}))
      .add();
  log::Event(log::Level::kInfo, kLogComponent, "job_requeued")
      .u64("job", started->id);
  return resp;
}

HttpResponse Daemon::job_file(std::uint64_t id, const std::string& name,
                              const char* content_type) {
  std::string dir;
  {
    std::lock_guard lock(mutex_);
    Job* job = find_job(id);
    if (job == nullptr) return error_response(404, "no such job");
    dir = job->dir;
  }
  try {
    HttpResponse resp;
    resp.content_type = content_type;
    resp.body = io::read_file(dir + "/" + name);
    return resp;
  } catch (const std::exception&) {
    return error_response(404, "artifact not available yet");
  }
}

HttpResponse Daemon::list_jobs() {
  std::lock_guard lock(mutex_);
  Writer w;
  w.begin_array();
  for (const auto& [id, job] : jobs_) {
    w.begin_object();
    w.key("id"), w.u64(job->id);
    w.key("tenant"), w.string(job->spec.tenant);
    w.key("state"), w.string(to_string(job->state));
    w.key("priority"), w.i64(job->spec.priority);
    w.end_object();
  }
  w.end_array();
  return json_response(200, std::move(w).str());
}

HttpResponse Daemon::stats() {
  std::lock_guard lock(mutex_);
  std::size_t running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) ++running;
  }
  Writer w;
  w.begin_object();
  w.key("queued"), w.u64(queue_.size());
  w.key("running"), w.u64(running);
  w.key("done"), w.u64(done_);
  w.key("failed"), w.u64(failed_);
  w.key("stopped"), w.u64(stopped_);
  w.key("slots"), w.u64(opt_.slots);
  w.key("queue_cap"), w.u64(opt_.queue_cap);
  w.key("draining"), w.boolean(draining_);
  // The backoff POST /jobs would advertise right now (Retry-After).
  w.key("retry_after"), w.u64(retry_after_locked());
  w.end_object();
  return json_response(200, std::move(w).str());
}

HttpResponse Daemon::metrics() {
  // Scrape-time gauges, computed under mutex_ from exactly the fields
  // /stats reports so the two surfaces reconcile.
  std::vector<pid_t> pids;
  {
    std::lock_guard lock(mutex_);
    std::size_t running = 0;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tenants;
    for (const auto& [id, job] : jobs_) {
      auto& t = tenants[job->spec.tenant];
      if (job->state == JobState::kQueued) ++t.first;
      if (job->state == JobState::kRunning) {
        ++running;
        ++t.second;
        if (job->pid > 0) pids.push_back(job->pid);
      }
    }
    const auto set_state = [this](const char* state, double v) {
      registry_
          .gauge(obs::prom::series("casurf_jobs", {{"state", state}}))
          .set(v);
    };
    set_state("queued", static_cast<double>(queue_.size()));
    set_state("running", static_cast<double>(running));
    set_state("done", static_cast<double>(done_));
    set_state("failed", static_cast<double>(failed_));
    set_state("stopped", static_cast<double>(stopped_));
    registry_.gauge("casurf_queue_depth")
        .set(static_cast<double>(queue_.size()));
    registry_.gauge("casurf_slots").set(static_cast<double>(opt_.slots));
    registry_.gauge("casurf_draining").set(draining_ ? 1 : 0);
    registry_.gauge("casurf_retry_after_seconds")
        .set(static_cast<double>(retry_after_locked()));
    for (const auto& [tenant, counts] : tenants) {
      registry_
          .gauge(obs::prom::series("casurf_tenant_jobs",
                                   {{"tenant", tenant}, {"state", "queued"}}))
          .set(static_cast<double>(counts.first));
      registry_
          .gauge(obs::prom::series("casurf_tenant_jobs",
                                   {{"tenant", tenant}, {"state", "running"}}))
          .set(static_cast<double>(counts.second));
    }
  }
  // /proc reads happen outside the lock; a worker that exits mid-scrape is
  // simply skipped.
  double rss = 0, cpu = 0;
  for (const pid_t pid : pids) {
    double r = 0, c = 0;
    if (sample_proc(pid, r, c)) {
      rss += r;
      cpu += c;
    }
  }
  registry_.gauge("casurf_worker_rss_bytes").set(rss);
  registry_.gauge("casurf_worker_cpu_seconds").set(cpu);

  HttpResponse resp;
  resp.content_type = obs::prom::kContentType;
  resp.body = obs::prom::render(registry_);
  return resp;
}

Daemon::Job* Daemon::find_job(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

std::size_t Daemon::tenant_live_locked(const std::string& tenant) const {
  std::size_t live = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->spec.tenant != tenant) continue;
    if (job->state == JobState::kQueued || job->state == JobState::kRunning) {
      ++live;
    }
  }
  return live;
}

}  // namespace casurf::serve
