#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace casurf {
namespace {

TEST(ThreadPool, SizeReflectsRequestedThreads) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(3).size(), 3u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // auto-detect, at least one
}

TEST(ThreadPool, RejectsMoreThanMaxThreads) {
  // The bound is checked before any worker starts, so this starts none.
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), std::invalid_argument);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1037;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](unsigned, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, WorkerIdsInRange) {
  ThreadPool pool(3);
  std::atomic<unsigned> max_id{0};
  pool.parallel_for(100, [&](unsigned tid, std::size_t, std::size_t) {
    unsigned cur = max_id.load();
    while (tid > cur && !max_id.compare_exchange_weak(cur, tid)) {
    }
    EXPECT_LT(tid, 3u);
  });
  EXPECT_LT(max_id.load(), 3u);
}

TEST(ThreadPool, HandlesFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](unsigned, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SmallJobsInvokeOnlyLeadingWorkersWithWork) {
  // active = min(n, size()): a 3-item job on an 8-worker pool must run the
  // body on workers 0..2 only, each with a non-empty slice. The regression
  // this guards is the old one-slice-per-worker split, where five surplus
  // workers were woken, re-locked the mutex, and decremented the barrier
  // for nothing — and callers could observe empty [b, e) slices.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> invoked(8);
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(3, [&](unsigned tid, std::size_t b, std::size_t e) {
      EXPECT_LT(b, e) << "empty slice handed to worker " << tid;
      invoked[tid].fetch_add(1);
    });
  }
  for (unsigned tid = 0; tid < 8; ++tid) {
    EXPECT_EQ(invoked[tid].load(), tid < 3 ? 20 : 0) << "worker " << tid;
  }
}

TEST(ThreadPool, AlternatingSmallAndLargeJobs) {
  // Surplus workers skipping a small job must rejoin the next full one.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> small{0}, large{0};
    pool.parallel_for(2, [&](unsigned, std::size_t b, std::size_t e) {
      small.fetch_add(e - b);
    });
    pool.parallel_for(1000, [&](unsigned, std::size_t b, std::size_t e) {
      large.fetch_add(e - b);
    });
    ASSERT_EQ(small.load(), 2u);
    ASSERT_EQ(large.load(), 1000u);
  }
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](unsigned, std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RepeatedCallsReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(50, [&](unsigned, std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 200u * 50u);
}

TEST(ThreadPool, SlicesAreContiguousAndOrdered) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> slices(4, {0, 0});
  pool.parallel_for(103, [&](unsigned tid, std::size_t b, std::size_t e) {
    slices[tid] = {b, e};
  });
  std::size_t covered = 0;
  for (unsigned t = 0; t < 4; ++t) {
    EXPECT_EQ(slices[t].first, covered);
    EXPECT_GE(slices[t].second, slices[t].first);
    covered = slices[t].second;
  }
  EXPECT_EQ(covered, 103u);
}

TEST(ThreadPool, ConcurrentSubmittersDoNotCorruptEachOther) {
  // Two threads hammering one pool. The regression this guards: without
  // the submission mutex, concurrent parallel_for calls clobbered
  // body_/job_n_/remaining_/generation_, so workers ran a mix of both
  // bodies against one barrier count — lost slices, double-run slices,
  // or a hang. Every round of each submitter must see exactly its own
  // item count. Runs under TSan via the "parallel" ctest label.
  ThreadPool pool(4);
  constexpr int kRounds = 300;
  const auto hammer = [&](std::size_t n, std::atomic<std::uint64_t>& total,
                          std::atomic<bool>& ok) {
    for (int round = 0; round < kRounds; ++round) {
      std::atomic<std::uint64_t> this_round{0};
      pool.parallel_for(n, [&](unsigned, std::size_t b, std::size_t e) {
        this_round.fetch_add(e - b);
      });
      if (this_round.load() != n) ok.store(false);
      total.fetch_add(this_round.load());
    }
  };
  std::atomic<std::uint64_t> total_a{0}, total_b{0};
  std::atomic<bool> ok_a{true}, ok_b{true};
  std::thread a([&] { hammer(777, total_a, ok_a); });
  std::thread b([&] { hammer(1031, total_b, ok_b); });
  a.join();
  b.join();
  EXPECT_TRUE(ok_a.load());
  EXPECT_TRUE(ok_b.load());
  EXPECT_EQ(total_a.load(), static_cast<std::uint64_t>(kRounds) * 777u);
  EXPECT_EQ(total_b.load(), static_cast<std::uint64_t>(kRounds) * 1031u);
}

TEST(ThreadPool, ConcurrentSubmitterExceptionStaysWithItsJob) {
  // A throwing body must surface on the thread that submitted it and leave
  // the other submitter's jobs untouched — error_ is per-job because the
  // submission lock is held across the barrier and the rethrow.
  ThreadPool pool(3);
  constexpr int kRounds = 100;
  std::atomic<int> caught{0};
  std::atomic<bool> clean_ok{true};
  std::thread thrower([&] {
    for (int round = 0; round < kRounds; ++round) {
      try {
        pool.parallel_for(64, [&](unsigned, std::size_t b, std::size_t) {
          if (b == 0) throw std::runtime_error("slice failed");
        });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    }
  });
  std::thread clean([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::atomic<std::uint64_t> sum{0};
      try {
        pool.parallel_for(64, [&](unsigned, std::size_t b, std::size_t e) {
          sum.fetch_add(e - b);
        });
      } catch (...) {
        clean_ok.store(false);  // inherited a foreign job's exception
      }
      if (sum.load() != 64) clean_ok.store(false);
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(caught.load(), kRounds);
  EXPECT_TRUE(clean_ok.load());
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<std::uint64_t> partial(pool.size(), 0);
  pool.parallel_for(n, [&](unsigned tid, std::size_t b, std::size_t e) {
    std::uint64_t s = 0;
    for (std::size_t i = b; i < e; ++i) s += i;
    partial[tid] = s;
  });
  const std::uint64_t total = std::accumulate(partial.begin(), partial.end(),
                                              std::uint64_t{0});
  EXPECT_EQ(total, n * (n - 1) / 2);
}

}  // namespace
}  // namespace casurf
