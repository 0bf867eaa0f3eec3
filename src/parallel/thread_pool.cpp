#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/failpoint.hpp"

namespace casurf {

namespace {

// Fault injection (docs/ROBUSTNESS.md): a worker that dies mid-slice and a
// worker that straggles. Both are evaluated per executed slice.
constexpr fail::Failpoint kWorkerThrow{"thread_pool/worker_throw"};
constexpr fail::Failpoint kWorkerStall{"thread_pool/worker_stall"};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("thread_pool: " + std::to_string(threads) +
                                " threads requested, at most " +
                                std::to_string(kMaxThreads) + " allowed");
  }
  if (threads == 0) {
    threads = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  }
  workers_.reserve(threads);
  try {
    for (unsigned i = 0; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_main(i); });
    }
  } catch (...) {
    // A spawn failed (std::system_error): destroying the joinable workers
    // already started would end the process, so stop them first.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_main(unsigned id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned, std::size_t, std::size_t)>* body = nullptr;
    std::size_t n = 0;
    unsigned active = 0;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      body = body_;
      n = job_n_;
      active = active_;
    }
    // Surplus worker for a small job: not counted in remaining_, nothing
    // to run — go straight back to waiting for the next generation.
    if (id >= active) continue;
    // Contiguous slice for this worker; n >= active, so begin < end always.
    const std::size_t per = n / active;
    const std::size_t extra = n % active;
    const std::size_t begin = id * per + std::min<std::size_t>(id, extra);
    const std::size_t end = begin + per + (id < extra ? 1 : 0);
    std::exception_ptr thrown;
    try {
      if (kWorkerStall.fire()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      if (kWorkerThrow.fire()) {
        throw std::runtime_error(
            "thread_pool: injected worker failure "
            "(failpoint thread_pool/worker_throw)");
      }
      (*body)(id, begin, end);
    } catch (...) {
      thrown = std::current_exception();
    }
    bool last;
    {
      std::lock_guard lock(mutex_);
      if (thrown != nullptr && error_ == nullptr) error_ = thrown;
      last = --remaining_ == 0;
    }
    // Notify after unlocking so the coordinator wakes into a free mutex
    // instead of immediately blocking on the one we still hold.
    if (last) done_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(unsigned, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  // One submission owns the pool end to end (publish, barrier, error
  // collection); a concurrent caller blocks here until the barrier below
  // has completed and the job state is quiescent again.
  std::lock_guard submission(submit_mutex_);
  {
    std::lock_guard lock(mutex_);
    body_ = &body;
    job_n_ = n;
    active_ = static_cast<unsigned>(std::min<std::size_t>(n, workers_.size()));
    remaining_ = active_;
    ++generation_;
  }
  // Wake with the mutex released: workers woken by notify_all would
  // otherwise immediately block re-acquiring the lock we hold.
  wake_.notify_all();
  std::unique_lock lock(mutex_);
  done_.wait(lock, [&] { return remaining_ == 0; });
  body_ = nullptr;
  if (error_ != nullptr) {
    // Rethrow only after the barrier: every slice has finished, so the
    // caller's data structures are not being touched concurrently and the
    // pool is immediately reusable for the next parallel_for.
    const std::exception_ptr e = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace casurf
