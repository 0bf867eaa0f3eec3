#include "parallel/msgpass.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace casurf {
namespace {

TEST(MsgPass, SingleRankRuns) {
  std::atomic<int> ran{0};
  Communicator::run(1, [&](Communicator::Rank& rank) {
    EXPECT_EQ(rank.rank(), 0);
    EXPECT_EQ(rank.world_size(), 1);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(MsgPass, AllRanksGetDistinctIds) {
  std::vector<std::atomic<int>> seen(4);
  Communicator::run(4, [&](Communicator::Rank& rank) {
    seen[rank.rank()].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(MsgPass, PointToPointRoundTrip) {
  Communicator::run(2, [](Communicator::Rank& rank) {
    if (rank.rank() == 0) {
      rank.send_value<int>(1, 7, 12345);
      EXPECT_EQ(rank.recv_value<int>(1, 8), 54321);
    } else {
      EXPECT_EQ(rank.recv_value<int>(0, 7), 12345);
      rank.send_value<int>(0, 8, 54321);
    }
  });
}

TEST(MsgPass, TagsKeepStreamsSeparate) {
  Communicator::run(2, [](Communicator::Rank& rank) {
    if (rank.rank() == 0) {
      rank.send_value<int>(1, 1, 100);
      rank.send_value<int>(1, 2, 200);
    } else {
      // Receive in the opposite order of sending: tag matching must find
      // the right message regardless of queue position.
      EXPECT_EQ(rank.recv_value<int>(0, 2), 200);
      EXPECT_EQ(rank.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(MsgPass, FifoPerSourceAndTag) {
  Communicator::run(2, [](Communicator::Rank& rank) {
    if (rank.rank() == 0) {
      for (int i = 0; i < 20; ++i) rank.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 20; ++i) EXPECT_EQ(rank.recv_value<int>(0, 3), i);
    }
  });
}

TEST(MsgPass, SpanTransfer) {
  Communicator::run(2, [](Communicator::Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<double> data(64);
      std::iota(data.begin(), data.end(), 0.0);
      rank.send_span(1, 4, data.data(), data.size());
    } else {
      std::vector<double> got(64, -1);
      rank.recv_span(0, 4, got.data(), got.size());
      for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(got[i], i);
    }
  });
}

TEST(MsgPass, BarrierSynchronizes) {
  // Phase counter: after the barrier, every rank must observe every other
  // rank's pre-barrier increment.
  std::atomic<int> before{0};
  std::vector<int> observed(4, -1);
  Communicator::run(4, [&](Communicator::Rank& rank) {
    before.fetch_add(1);
    rank.barrier();
    observed[rank.rank()] = before.load();
  });
  for (const int o : observed) EXPECT_EQ(o, 4);
}

TEST(MsgPass, RepeatedBarriers) {
  std::atomic<int> counter{0};
  Communicator::run(3, [&](Communicator::Rank& rank) {
    for (int round = 0; round < 50; ++round) {
      counter.fetch_add(1);
      rank.barrier();
      EXPECT_EQ(counter.load() % 3, 0);
      rank.barrier();
    }
  });
}

TEST(MsgPass, AllreduceSumDouble) {
  Communicator::run(4, [](Communicator::Rank& rank) {
    const double mine = static_cast<double>(rank.rank() + 1);
    EXPECT_DOUBLE_EQ(rank.allreduce_sum(mine), 10.0);  // 1+2+3+4
  });
}

TEST(MsgPass, AllreduceSumU64Repeated) {
  Communicator::run(3, [](Communicator::Rank& rank) {
    for (std::uint64_t round = 1; round <= 30; ++round) {
      const std::uint64_t total =
          rank.allreduce_sum(static_cast<std::uint64_t>(rank.rank()) + round);
      EXPECT_EQ(total, 3 * round + 3);  // (0+1+2) + 3*round
    }
  });
}

TEST(MsgPass, StatsCountMessagesAndBytes) {
  const Communicator::Stats stats =
      Communicator::run(2, [](Communicator::Rank& rank) {
        if (rank.rank() == 0) {
          rank.send_value<std::uint32_t>(1, 1, 7);
        } else {
          (void)rank.recv_value<std::uint32_t>(0, 1);
        }
        rank.barrier();
      });
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 4u);
  EXPECT_GE(stats.barriers, 1u);
}

TEST(MsgPass, ConcurrentRunsKeepStatsSeparate) {
  // Two worlds with different traffic shapes driven from separate threads.
  // Each run() must report exactly its own totals — the regression this
  // guards is the old process-wide mutable static, where whichever world
  // finished last overwrote the other's stats (and the write itself raced).
  constexpr int kRounds = 50;
  const auto world = [](int messages, std::size_t payload) {
    return Communicator::run(2, [=](Communicator::Rank& rank) {
      const std::vector<std::byte> buf(payload);
      for (int i = 0; i < messages; ++i) {
        if (rank.rank() == 0) {
          rank.send(1, 1, buf);
        } else {
          (void)rank.recv(0, 1);
        }
      }
      rank.barrier();
    });
  };

  Communicator::Stats small{}, big{};
  std::thread a([&] { small = world(kRounds, 8); });
  std::thread b([&] { big = world(2 * kRounds, 64); });
  a.join();
  b.join();

  EXPECT_EQ(small.messages, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(small.bytes, static_cast<std::uint64_t>(kRounds) * 8);
  EXPECT_GE(small.barriers, 1u);
  EXPECT_EQ(big.messages, static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_EQ(big.bytes, static_cast<std::uint64_t>(2 * kRounds) * 64);
  EXPECT_GE(big.barriers, 1u);
}

TEST(MsgPass, RankFailureWakesBlockedRecv) {
  // The deadlock this guards: rank 0 throws before sending, while rank 1
  // is parked in an unbounded recv wait. run() must abort the world, wake
  // rank 1 (which throws CommAborted), join both ranks, and rethrow the
  // ORIGINAL exception — not hang in join(), not surface the cascade.
  try {
    Communicator::run(2, [](Communicator::Rank& rank) {
      if (rank.rank() == 0) throw std::runtime_error("rank 0 died");
      (void)rank.recv(0, 1);  // blocks forever without the abort path
      FAIL() << "recv returned from a dead world";
    });
    FAIL() << "run() swallowed the rank failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
}

TEST(MsgPass, RankFailureWakesBlockedBarrier) {
  try {
    Communicator::run(3, [](Communicator::Rank& rank) {
      if (rank.rank() == 2) throw std::runtime_error("rank 2 died");
      rank.barrier();  // never completed by rank 2
      FAIL() << "barrier completed in a dead world";
    });
    FAIL() << "run() swallowed the rank failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }
}

TEST(MsgPass, RankFailureWakesBlockedAllreduce) {
  try {
    Communicator::run(2, [](Communicator::Rank& rank) {
      if (rank.rank() == 0) throw std::runtime_error("rank 0 died");
      (void)rank.allreduce_sum(1.0);
      FAIL() << "allreduce completed in a dead world";
    });
    FAIL() << "run() swallowed the rank failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
}

TEST(MsgPass, CallsAfterAbortThrowCommAborted) {
  // A rank entering a blocking call after the world aborted must get
  // CommAborted immediately (poisoned mailboxes), not wait. The survivor
  // records what it saw and swallows it, so the only error run() reports
  // is the original failure.
  std::atomic<bool> survivor_saw_abort{false};
  try {
    Communicator::run(2, [&](Communicator::Rank& rank) {
      if (rank.rank() == 0) throw std::runtime_error("rank 0 died");
      try {
        // Eventually observes the poisoned state, no matter how the
        // scheduler interleaves this with rank 0's failure.
        for (;;) (void)rank.recv(0, 1);
      } catch (const CommAborted&) {
        survivor_saw_abort.store(true);
      }
    });
    FAIL() << "run() swallowed the rank failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
  EXPECT_TRUE(survivor_saw_abort.load());
}

TEST(MsgPass, AbortedWorldStillRethrowsWhenOnlyCommAbortedRemains) {
  // A rank_main that itself throws CommAborted (user code) must still
  // surface: the cascade filter only prefers non-CommAborted errors.
  EXPECT_THROW(
      Communicator::run(1, [](Communicator::Rank&) { throw CommAborted(); }),
      CommAborted);
}

TEST(MsgPass, ExceptionInRankPropagates) {
  EXPECT_THROW(Communicator::run(2,
                                 [](Communicator::Rank& rank) {
                                   rank.barrier();
                                   if (rank.rank() == 1) {
                                     throw std::runtime_error("rank failure");
                                   }
                                 }),
               std::runtime_error);
}

TEST(MsgPass, InvalidDestinationThrowsInRank) {
  EXPECT_THROW(Communicator::run(1,
                                 [](Communicator::Rank& rank) {
                                   rank.send_value<int>(5, 0, 1);
                                 }),
               std::out_of_range);
}

TEST(MsgPass, InvalidWorldSize) {
  EXPECT_THROW(Communicator::run(0, [](Communicator::Rank&) {}), std::invalid_argument);
}

TEST(MsgPass, RecvSpanSizeMismatchThrows) {
  // The silent-truncation regression: a sender shipping 3 doubles to a
  // receiver expecting 4 used to memcpy whatever arrived and leave the
  // tail stale. It must be a descriptive error instead.
  try {
    Communicator::run(2, [](Communicator::Rank& rank) {
      if (rank.rank() == 0) {
        const std::vector<double> data(3, 1.5);
        rank.send_span(1, 9, data.data(), data.size());
      } else {
        std::vector<double> got(4, -1.0);
        rank.recv_span(0, 9, got.data(), got.size());
        FAIL() << "recv_span accepted a short payload";
      }
    });
    FAIL() << "run() swallowed the payload mismatch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("payload size mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("got 24 bytes, expected 32"), std::string::npos) << what;
  }
}

TEST(MsgPass, RecvValueSizeMismatchThrows) {
  try {
    Communicator::run(2, [](Communicator::Rank& rank) {
      if (rank.rank() == 0) {
        rank.send_value<std::uint16_t>(1, 3, 7);
      } else {
        (void)rank.recv_value<std::uint64_t>(0, 3);
        FAIL() << "recv_value accepted a short payload";
      }
    });
    FAIL() << "run() swallowed the payload mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("payload size mismatch"),
              std::string::npos)
        << e.what();
  }
}

/// Total of the registry's comm/edge counters matching `suffix`
/// ("messages" or "bytes"); also verifies the src->dst name shape.
std::uint64_t edge_total(const obs::MetricsRegistry& registry,
                         const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& c : registry.counters()) {
    int src = -1, dst = -1;
    char kind[16] = {};
    if (std::sscanf(c.name.c_str(), "comm/edge/%d->%d/%15s", &src, &dst,
                    kind) == 3 &&
        suffix == kind) {
      total += c.value;
    }
  }
  return total;
}

TEST(MsgPassObs, EdgeCountersReconcileWithStats) {
  // Asymmetric traffic so per-edge attribution is distinguishable from a
  // single global counter: 0->1 three small messages, 1->2 one large, plus
  // barriers and an allreduce. Every edge counter must sum back to the
  // communicator's own Stats — the reconciliation casurf_report --comm
  // enforces on real runs.
  obs::MetricsRegistry registry;
  const Communicator::Stats stats = Communicator::run(
      3,
      [](Communicator::Rank& rank) {
        if (rank.rank() == 0) {
          for (int i = 0; i < 3; ++i) rank.send_value<std::uint32_t>(1, 1, i);
        } else if (rank.rank() == 1) {
          for (int i = 0; i < 3; ++i) (void)rank.recv_value<std::uint32_t>(0, 1);
          const std::vector<double> big(32, 1.0);
          rank.send_span(2, 2, big.data(), big.size());
        } else {
          std::vector<double> got(32, 0.0);
          rank.recv_span(1, 2, got.data(), got.size());
        }
        rank.barrier();
        (void)rank.allreduce_sum(1.0);
      },
      obs::Sinks{&registry});

  EXPECT_EQ(stats.messages, 4u);
  EXPECT_EQ(stats.bytes, 3u * 4 + 32 * 8);
  EXPECT_EQ(edge_total(registry, "messages"), stats.messages);
  EXPECT_EQ(edge_total(registry, "bytes"), stats.bytes);

  // The specific edges, not just the totals.
  std::uint64_t edge01 = 0, edge12 = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "comm/edge/0->1/messages") edge01 = c.value;
    if (c.name == "comm/edge/1->2/messages") edge12 = c.value;
  }
  EXPECT_EQ(edge01, 3u);
  EXPECT_EQ(edge12, 1u);

  // Wait timers and the barrier-skew histogram exist per rank.
  std::size_t recv_timers = 0, barrier_timers = 0;
  for (const auto& t : registry.timers()) {
    if (t.name.starts_with("comm/wait/recv/rank")) ++recv_timers;
    if (t.name.starts_with("comm/wait/barrier/rank")) ++barrier_timers;
  }
  EXPECT_EQ(recv_timers, 3u);
  EXPECT_EQ(barrier_timers, 3u);
  bool skew_seen = false;
  for (const auto& h : registry.histograms()) {
    if (h.name == "comm/barrier_skew_ns") {
      skew_seen = true;
      EXPECT_GE(h.count, 1u);
    }
  }
  EXPECT_TRUE(skew_seen);
}

TEST(MsgPassObs, RankLanesCarryCommEvents) {
  obs::Tracer tracer;
  Communicator::run(
      2,
      [](Communicator::Rank& rank) {
        ASSERT_NE(rank.trace(), nullptr);
        if (rank.rank() == 0) {
          const std::vector<std::uint32_t> data(4, 9);
          rank.send_span(1, 5, data.data(), data.size());
        } else {
          std::vector<std::uint32_t> got(4, 0);
          rank.recv_span(0, 5, got.data(), got.size());
        }
        rank.barrier();
      },
      obs::Sinks{nullptr, &tracer});

  // Rank k records onto lane kRankLaneBase + k — its own ring, single
  // writer, so lanes never interleave.
  const auto lane0 = tracer.ring(obs::kRankLaneBase + 0).events();
  const auto lane1 = tracer.ring(obs::kRankLaneBase + 1).events();
  bool send_seen = false;
  for (const auto& e : lane0) {
    if (std::strcmp(e.name, "comm/send") == 0) {
      send_seen = true;
      EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kInstant);
      EXPECT_EQ(e.src, 0);
      EXPECT_EQ(e.dst, 1);
      EXPECT_EQ(e.tag, 5);
      EXPECT_EQ(e.bytes, 16u);
    }
  }
  EXPECT_TRUE(send_seen);
  bool recv_seen = false, barrier_seen = false;
  for (const auto& e : lane1) {
    if (std::strcmp(e.name, "comm/recv") == 0) {
      recv_seen = true;
      EXPECT_EQ(e.kind, obs::TraceEvent::Kind::kSpan);
      EXPECT_EQ(e.src, 0);
      EXPECT_EQ(e.dst, 1);
      EXPECT_EQ(e.tag, 5);
      EXPECT_EQ(e.bytes, 16u);
    }
    if (std::strcmp(e.name, "comm/barrier") == 0) barrier_seen = true;
  }
  EXPECT_TRUE(recv_seen);
  EXPECT_TRUE(barrier_seen);
}

TEST(MsgPassObs, ConcurrentWorldsIsolateProbes) {
  // Two instrumented worlds running simultaneously, each with its own
  // registry and tracer: probes are per-Communicator state (armed in
  // run()), so neither world may leak counts or trace events into the
  // other's sinks. Run under the TSan recipe this also proves the probe
  // paths add no races on top of the communicator's own locking.
  constexpr int kSmall = 10, kBig = 25;
  const auto world = [](int messages, obs::MetricsRegistry& registry,
                        obs::Tracer& tracer) {
    return Communicator::run(
        2,
        [messages](Communicator::Rank& rank) {
          for (int i = 0; i < messages; ++i) {
            if (rank.rank() == 0) {
              rank.send_value<std::uint64_t>(1, 1, i);
            } else {
              (void)rank.recv_value<std::uint64_t>(0, 1);
            }
          }
          rank.barrier();
        },
        obs::Sinks{&registry, &tracer});
  };

  obs::MetricsRegistry reg_a, reg_b;
  obs::Tracer tr_a, tr_b;
  Communicator::Stats stats_a{}, stats_b{};
  std::thread a([&] { stats_a = world(kSmall, reg_a, tr_a); });
  std::thread b([&] { stats_b = world(kBig, reg_b, tr_b); });
  a.join();
  b.join();

  EXPECT_EQ(stats_a.messages, static_cast<std::uint64_t>(kSmall));
  EXPECT_EQ(stats_b.messages, static_cast<std::uint64_t>(kBig));
  EXPECT_EQ(edge_total(reg_a, "messages"), stats_a.messages);
  EXPECT_EQ(edge_total(reg_b, "messages"), stats_b.messages);
  EXPECT_EQ(edge_total(reg_a, "bytes"), stats_a.bytes);
  EXPECT_EQ(edge_total(reg_b, "bytes"), stats_b.bytes);

  // Each world's send instants live in its own tracer, count intact.
  const auto sends = [](obs::Tracer& t) {
    std::uint64_t n = 0;
    for (const auto& e : t.ring(obs::kRankLaneBase + 0).events()) {
      if (std::strcmp(e.name, "comm/send") == 0) ++n;
    }
    return n;
  };
  EXPECT_EQ(sends(tr_a), static_cast<std::uint64_t>(kSmall));
  EXPECT_EQ(sends(tr_b), static_cast<std::uint64_t>(kBig));
}

TEST(MsgPassObs, NullSinksRecordNothing) {
  // The null-probe-off contract: a world with no sinks attached must leave
  // probes disarmed — rank.trace() stays null and nothing is recorded.
  Communicator::run(
      2,
      [](Communicator::Rank& rank) {
        EXPECT_EQ(rank.trace(), nullptr);
        if (rank.rank() == 0) {
          rank.send_value<int>(1, 1, 42);
        } else {
          (void)rank.recv_value<int>(0, 1);
        }
      },
      obs::Sinks{});
}

}  // namespace
}  // namespace casurf
