// End-to-end check of the run report's "comm" section: an instrumented
// multi-rank world must produce a report whose per-edge totals reconcile
// exactly with the communicator's own Stats, whose per-rank wait rows and
// gauges are present, and whose run header carries the trace id and drop
// count — the contract `casurf_report --comm` and the serve daemon's
// harvest path consume.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/msgpass.hpp"

namespace casurf {
namespace {

using obs::json::Value;

Communicator::Stats run_instrumented(obs::MetricsRegistry* registry,
                                     obs::Tracer* tracer) {
  return Communicator::run(
      3,
      [](Communicator::Rank& rank) {
        const int next = (rank.rank() + 1) % rank.world_size();
        const int prev = (rank.rank() + rank.world_size() - 1) % rank.world_size();
        const std::vector<std::uint64_t> payload(8, rank.rank());
        for (int round = 0; round < 4; ++round) {
          rank.send_span(next, 1, payload.data(), payload.size());
          std::vector<std::uint64_t> got(8, 0);
          rank.recv_span(prev, 1, got.data(), got.size());
          rank.barrier();
        }
        (void)rank.allreduce_sum(static_cast<std::uint64_t>(1));
      },
      {registry, tracer});
}

TEST(CommObsReport, CommSectionReconcilesWithStats) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  tracer.set_trace_id("test-comm-obs");
  const Communicator::Stats stats = run_instrumented(&registry, &tracer);

  obs::RunInfo info;
  info.algorithm = "msgpass-test";
  info.model = "none";
  info.threads = 3;
  info.wall_seconds = 0.5;
  info.trace_id = tracer.trace_id();
  info.trace_drops = tracer.total_dropped();
  obs::CommModel model;
  model.messages = static_cast<double>(stats.messages);
  model.bytes = static_cast<double>(stats.bytes);

  const Value doc = Value::parse(obs::run_report_json(
      info, nullptr, &registry, &stats, nullptr, nullptr, nullptr, &model));
  ASSERT_EQ(doc.string_or("schema", ""), "casurf-run-report/1");

  const Value& run = doc.at("run");
  EXPECT_EQ(run.string_or("trace_id", ""), "test-comm-obs");
  EXPECT_EQ(run.number_or("trace_drops", -1), 0);

  const Value* comm = doc.find("comm");
  ASSERT_NE(comm, nullptr);
  ASSERT_TRUE(comm->is_object());
  EXPECT_EQ(comm->number_or("messages", 0),
            static_cast<double>(stats.messages));
  EXPECT_EQ(comm->number_or("bytes", 0), static_cast<double>(stats.bytes));
  EXPECT_EQ(comm->number_or("barriers", 0),
            static_cast<double>(stats.barriers));

  // Per-edge rows sum back to the communicator totals, exactly.
  const Value& edges = comm->at("edges");
  ASSERT_TRUE(edges.is_array());
  EXPECT_FALSE(edges.items().empty());
  double edge_messages = 0, edge_bytes = 0;
  for (const Value& e : edges.items()) {
    edge_messages += e.number_or("messages", 0);
    edge_bytes += e.number_or("bytes", 0);
    EXPECT_GE(e.number_or("src", -1), 0);
    EXPECT_GE(e.number_or("dst", -1), 0);
  }
  EXPECT_EQ(edge_messages, static_cast<double>(stats.messages));
  EXPECT_EQ(edge_bytes, static_cast<double>(stats.bytes));

  // One wait row per rank, with the aggregate wait_ns precomputed.
  const Value& ranks = comm->at("ranks");
  ASSERT_TRUE(ranks.is_array());
  ASSERT_EQ(ranks.items().size(), 3u);
  for (const Value& r : ranks.items()) {
    EXPECT_GE(r.number_or("wait_recv_ns", -1), 0);
    EXPECT_GE(r.number_or("wait_barrier_ns", -1), 0);
    EXPECT_GE(r.number_or("wait_allreduce_ns", -1), 0);
    EXPECT_EQ(r.number_or("wait_ns", -1),
              r.number_or("wait_recv_ns", 0) + r.number_or("wait_barrier_ns", 0) +
                  r.number_or("wait_allreduce_ns", 0));
    EXPECT_GE(r.number_or("queue_high_water", -1), 0);
  }

  // Barrier skew recorded at least once per completed epoch.
  const Value* skew = comm->find("barrier_skew");
  ASSERT_NE(skew, nullptr);
  ASSERT_TRUE(skew->is_object());
  EXPECT_GE(skew->number_or("count", 0), 4);

  // The registry's gauges (queue high-waters) surface in the metrics
  // section alongside counters and timers.
  const Value* gauges = doc.at("metrics").find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_FALSE(gauges->members().empty());

  // The cost-model prediction is embedded for measured-vs-model output.
  const Value& m = comm->at("model");
  ASSERT_TRUE(m.is_object());
  EXPECT_EQ(m.number_or("messages", -1), static_cast<double>(stats.messages));
}

TEST(CommObsReport, CommSectionNullWithoutCommunicator) {
  obs::MetricsRegistry registry;
  obs::RunInfo info;
  info.algorithm = "rsm";
  const Value doc =
      Value::parse(obs::run_report_json(info, nullptr, &registry));
  const Value* comm = doc.find("comm");
  ASSERT_NE(comm, nullptr);
  EXPECT_TRUE(comm->is_null());
}

TEST(CommObsReport, TraceFooterCarriesIdAndOrigin) {
  obs::Tracer tracer;
  tracer.set_trace_id("job-42");
  tracer.ring(obs::kRankLaneBase).comm_instant("comm/send", 0, 1, 7, 16);
  const Value doc = Value::parse(tracer.chrome_trace_json());
  const Value& other = doc.at("otherData");
  EXPECT_EQ(other.string_or("schema", ""), "casurf-trace/1");
  EXPECT_EQ(other.string_or("trace_id", ""), "job-42");
  EXPECT_EQ(other.number_or("t0_ns", 0),
            static_cast<double>(tracer.t0_ns()));

  // The comm event's args carry the edge and payload.
  bool seen = false;
  for (const Value& e : doc.at("traceEvents").items()) {
    if (e.string_or("name", "") != "comm/send") continue;
    seen = true;
    const Value& args = e.at("args");
    EXPECT_EQ(args.number_or("src", -1), 0);
    EXPECT_EQ(args.number_or("dst", -1), 1);
    EXPECT_EQ(args.number_or("tag", -1), 7);
    EXPECT_EQ(args.number_or("bytes", -1), 16);
  }
  EXPECT_TRUE(seen);
}

}  // namespace
}  // namespace casurf
