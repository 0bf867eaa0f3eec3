#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace casurf {

/// A small fork-join worker pool for data-parallel chunk execution.
/// parallel_for splits an index range into one contiguous slice per worker
/// and blocks until every slice has run — the execution model of one PNDCA
/// chunk sweep. Workers persist across calls (no per-step thread spawn).
///
/// A body that throws does not take the process down: the first exception
/// is captured, the barrier still completes (every other slice finishes),
/// and parallel_for rethrows it on the calling thread — so a failing sweep
/// surfaces as an ordinary exception the run loop (or the supervisor's
/// worker process) can handle. The pool stays usable afterwards.
///
/// Deliberately minimal: static partitioning (PNDCA trials are uniform
/// cost), no work stealing, no task queue.
class ThreadPool {
 public:
  /// The most workers a pool starts; the CLI's --threads and the serve
  /// JobSpec's "threads" are checked against it too.
  static constexpr unsigned kMaxThreads = 256;

  /// `threads` workers; 0 picks the hardware concurrency (at least 1, at
  /// most kMaxThreads). Throws std::invalid_argument above kMaxThreads,
  /// before any thread starts; if a spawn fails, joins the workers already
  /// started and rethrows its std::system_error.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run body(worker_id, begin, end) for a balanced split of [0, n) across
  /// min(n, size()) workers; returns when every slice completed. When
  /// n < size() the surplus workers never run the body (no empty slices),
  /// so every invoked worker receives at least one index. Worker ids are
  /// 0..size()-1 and stable, so callers can index per-thread scratch
  /// buffers. The calling thread only coordinates; re-entrant calls from
  /// within a body are not allowed (a slice submitting to its own pool
  /// self-deadlocks on the submission lock). If any slice threw, the first
  /// captured exception is rethrown here after all slices finished.
  ///
  /// Thread safety: concurrent parallel_for calls from DIFFERENT threads
  /// are safe — submissions serialize on an internal mutex held for the
  /// whole fork-join, so the second job starts only after the first's
  /// barrier completes. A daemon multiplexing simulations should still
  /// give each concurrent run its own pool: serialization preserves
  /// correctness, not parallel throughput.
  void parallel_for(std::size_t n,
                    const std::function<void(unsigned, std::size_t, std::size_t)>& body);

 private:
  void worker_main(unsigned id);
  void stop_and_join();

  std::vector<std::thread> workers_;
  /// Serializes whole parallel_for invocations. Without it, two concurrent
  /// submitters clobber body_/job_n_/remaining_/generation_ and corrupt
  /// both jobs (workers run a mix of the two bodies against one barrier
  /// count). Always acquired before, and released after, mutex_.
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(unsigned, std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t job_n_ = 0;
  std::uint64_t generation_ = 0;
  unsigned active_ = 0;  // workers participating in the current job
  unsigned remaining_ = 0;
  std::exception_ptr error_;  // first exception thrown by a slice this job
  bool stopping_ = false;
};

}  // namespace casurf
