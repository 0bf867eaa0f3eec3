// Tests of casurf_ledger: the parsing, accuracy and statistics helpers on
// hand-made inputs, the comparison rule, a determinism failure injected
// through a wrapped casurf_run, and every workload run end to end at 64x64
// (CASURF_BENCH_FAST=1) against the metric list in BENCHMARK.json.

#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "ledger.hpp"
#include "obs/json.hpp"

namespace {

namespace json = casurf::obs::json;
using namespace ledger;

void write(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(Parse, SummaryLine) {
  const std::string out =
      "# PNDCA, 7 reaction types, K = 20.000, 500 x 500, seed 3\n"
      "time       *        CO       O\n"
      "1.00       0.5000   0.2500   0.2500\n"
      "# 105250000 trials, 2306931 executed (acceptance 2.19%)\n";
  const std::optional<Summary> s = parse_summary(out);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->trials, 105250000u);
  EXPECT_EQ(s->executed, 2306931u);
  EXPECT_FALSE(parse_summary("# PNDCA, 7 reaction types\n").has_value());
}

TEST(Parse, CsvShapeAndNumbers) {
  const Csv csv = parse_csv("time,*,A\n0,0.5,0.5\n5,0.25,0.75\n");
  EXPECT_EQ(csv.header, (std::vector<std::string>{"time", "*", "A"}));
  ASSERT_EQ(csv.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(csv.rows[1][2], 0.75);
  EXPECT_THROW((void)parse_csv("time,*,A\n0,0.5\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv("time,*,A\n0,0.5,x\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv(""), std::runtime_error);
}

TEST(Checks, RowCount) {
  const Csv csv = parse_csv("time,*\n0,1\n1,1\n2,1\n");
  EXPECT_EQ(check_rows(csv, 2, 1), "");
  EXPECT_NE(check_rows(csv, 3, 1), "");
  EXPECT_EQ(check_rows(parse_csv("time,*\n0,1\n1e-9,1\n"), 1e-9, 1e-9), "");
}

TEST(Checks, CoverageSums) {
  EXPECT_EQ(check_coverage_sums(parse_csv("time,*,A\n0,0.5,0.5\n")), "");
  // Six significant digits: thirds print as 0.333333 and still pass.
  EXPECT_EQ(check_coverage_sums(parse_csv("time,*,A,B\n0,0.333333,0.333333,0.333333\n")), "");
  EXPECT_NE(check_coverage_sums(parse_csv("time,*,A\n0,0.5,0.5\n1,0.5,0.49\n")), "");
}

TEST(Accuracy, CovErrUsesSecondHalfAndWorstSpecies) {
  // t_end = 4: rows with t > 2 are t = 3 and t = 4.
  const Csv ref = parse_csv("time,*,A\n0,1,0\n1,0.9,0.1\n2,0.8,0.2\n3,0.5,0.5\n4,0.5,0.5\n");
  const Csv run = parse_csv("time,*,A\n0,1,0\n1,0,1\n2,0,1\n3,0.6,0.4\n4,0.4,0.6\n");
  EXPECT_DOUBLE_EQ(cov_err(run, ref, 4), 0.0);  // means 0.5/0.5 on both
  const Csv off = parse_csv("time,*,A\n0,1,0\n1,1,0\n2,1,0\n3,0.7,0.3\n4,0.6,0.4\n");
  EXPECT_NEAR(cov_err(off, ref, 4), 0.15, 1e-12);
  EXPECT_THROW((void)cov_err(parse_csv("time,*,B\n3,1,0\n"), ref, 4), std::runtime_error);
}

TEST(Accuracy, RateBias) {
  EXPECT_NEAR(rate_bias(8029839, 6251027), 0.284563, 1e-6);
  EXPECT_NEAR(rate_bias(99, 100), 0.01, 1e-12);
  EXPECT_THROW((void)rate_bias(1, 0), std::runtime_error);
}

TEST(Stats, MedianAndQuartilesMatchPython) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  // statistics.quantiles(v, n=4)
  EXPECT_EQ(quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (std::vector<double>{2.75, 5.5, 8.25}));
  EXPECT_EQ(quartiles({1, 2}), (std::vector<double>{0.75, 1.5, 2.25}));
  const std::vector<double> q = quartiles({1.5, 0.2, 9, 4, 4.5});
  EXPECT_NEAR(q[0], 0.85, 1e-12);
  EXPECT_NEAR(q[1], 4.0, 1e-12);
  EXPECT_NEAR(q[2], 6.75, 1e-12);
  EXPECT_NEAR(spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5, 1e-12);
  EXPECT_THROW((void)quartiles({1}), std::invalid_argument);
}

TEST(Stats, TailHasTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_FALSE(tail(v).has_value());
  for (int i = 11; i <= 25; ++i) v.push_back(i);
  EXPECT_EQ(tail(v)->percentile, 60);  // 10 of 25 samples beyond the 15th
  EXPECT_DOUBLE_EQ(tail(v)->value, 15);
  for (int i = 26; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(tail(v)->percentile, 90);
  EXPECT_DOUBLE_EQ(tail(v)->value, 90);
  for (int i = 101; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(tail(v)->percentile, 99);
  EXPECT_DOUBLE_EQ(tail(v)->value, 990);
}

std::vector<double> around(double center, double step, int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(center + step * (i - n / 2));
  return v;
}

TEST(Compare, Rule) {
  const std::vector<double> parent = around(1.0, 0.002, 10);  // spread ~1%
  EXPECT_EQ(compare_metric(parent, around(0.8, 0.002, 10), 0.1, true), Verdict::kImproved);
  EXPECT_EQ(compare_metric(parent, around(1.3, 0.002, 10), 0.1, true), Verdict::kRegressed);
  EXPECT_EQ(compare_metric(parent, around(1.01, 0.002, 10), 0.1, true), Verdict::kUnchanged);
  // Higher-is-better flips the direction.
  EXPECT_EQ(compare_metric(parent, around(0.8, 0.002, 10), 0.1, false), Verdict::kRegressed);
  // Fewer than ten pairs cannot claim a gain.
  EXPECT_EQ(compare_metric(around(1.0, 0.002, 3), around(0.8, 0.002, 3), 0.1, true),
            Verdict::kUnchanged);
  // A parent noisier than the bound leaves the verdict open...
  const std::vector<double> noisy = {1, 2, 1, 2, 1, 2, 1, 2, 1, 2};
  EXPECT_EQ(compare_metric(noisy, noisy, 0.1, true), Verdict::kUnresolved);
  // ...unless every new run beats every old one.
  EXPECT_EQ(compare_metric(noisy, around(0.3, 0.01, 10), 0.1, true), Verdict::kImproved);
}

std::string collection(const std::string& workload, const std::vector<double>& walls) {
  std::string runs;
  for (const double v : walls) {
    runs += std::string(runs.empty() ? "" : ",") + R"({"workload":")" + workload +
            R"(","seed":3,"traced":false,"metrics":{"wall_s.vssm":{"value":)" +
            std::to_string(v) + R"(,"unit":"s"}}})";
  }
  return R"({"schema":"casurf-ledger/1","host":{},"runs":[)" + runs + "]}";
}

TEST(Compare, FilesAgainstBenchmarkBounds) {
  write("cmp_old.json", collection("zgb-500", around(1.0, 0.002, 10)));
  write("cmp_same.json", collection("zgb-500", around(1.0, 0.002, 10)));
  write("cmp_slow.json", collection("zgb-500", around(2.0, 0.002, 10)));
  EXPECT_EQ(run_compare("cmp_old.json", "cmp_same.json", LEDGER_BENCHMARK_JSON), 0);
  EXPECT_EQ(run_compare("cmp_old.json", "cmp_slow.json", LEDGER_BENCHMARK_JSON), 1);
}

// A casurf_run whose serial fast-path CSVs differ from the default path by
// formatting only: same numbers, rows and sums, so the determinism check
// alone must fail, once per pndca_fast launch.
TEST(EndToEnd, CsvMismatchIsAFailedOperation) {
  setenv("CASURF_BENCH_FAST", "1", 1);
  const std::string dir = std::filesystem::absolute("mismatch_out").string();
  std::filesystem::create_directories(dir);
  const std::string fake = dir + "/casurf_run";
  write(fake, std::string("#!/bin/bash\n") + "\"" + CASURF_RUN_EXE + "\" \"$@\" || exit $?\n" +
                  "[[ \" $* \" == *' --algorithm pndca --fast-path '* ]] || exit 0\n"
                  "for a in \"$@\"; do csv=$a; done\n"
                  "sed -i '2s/^0,/0.0,/' \"$csv\"\n");
  ASSERT_EQ(chmod(fake.c_str(), 0755), 0);

  RunArgs args;
  args.workload = find_workload("zgb-500");
  args.seconds = 0;
  args.casurf_run = fake;
  args.out_dir = dir;
  const RunResult r = run_e2e(args);
  std::size_t fast_launches = 0;
  for (const auto& [name, v] : r.samples) {
    if (name == "wall_s.pndca_fast") fast_launches = v.size();
  }
  EXPECT_GE(fast_launches, 3u);
  EXPECT_EQ(r.ops.failed(), fast_launches);
}

TEST(Cli, RejectsMalformedArguments) {
  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "nope"},
      {"--workload", "zgb-500", "--seed", "-1"},
      {"--workload", "zgb-500", "--seed", "1e30"},
      {"--workload", "zgb-500", "--seconds", "inf"},
      {"--workload", "zgb-500", "--trace", "2"},
      {"--seed", "3"},
  };
  for (const std::vector<std::string>& args : bad) {
    std::vector<std::string> argv = {CASURF_LEDGER_EXE};
    argv.insert(argv.end(), args.begin(), args.end());
    const Launch l = launch(argv, std::filesystem::absolute("cli.out").string());
    EXPECT_EQ(l.exit_code, 2) << args.back();
    EXPECT_EQ(l.out, "") << args.back();
  }
}

struct Output {
  std::string out;
  std::string err;
};

/// Run casurf_ledger; its stdout and stderr.
Output ledger_run(const std::string& workload, const char* trace) {
  const std::string path = std::filesystem::absolute(workload + ".trace" + trace + ".out").string();
  const Launch l = launch({CASURF_LEDGER_EXE, "--workload", workload, "--seed", "3", "--seconds",
                           "0", "--trace", trace},
                          path);
  EXPECT_EQ(l.exit_code, 0) << read_file(path + ".err");
  return {l.out, read_file(path + ".err")};
}

/// Every metric of BENCHMARK.json's `list` is printed with its unit, the
/// last line is the result object with exactly the listed metrics, and no
/// operation failed.
void expect_metrics(const Output& o, const std::string& list) {
  const std::string out = "\n" + o.out;
  const json::Value bench = json::Value::parse(read_file(LEDGER_BENCHMARK_JSON));
  const std::string last = out.substr(out.rfind('\n', out.size() - 2) + 1);
  const json::Value result = json::Value::parse(last);
  EXPECT_TRUE(result.at("correct").as_bool()) << o.err;
  EXPECT_EQ(result.at("failed").as_number(), 0);
  EXPECT_GE(result.at("attempted").as_number(), 1);
  const json::Value& metrics = result.at("metrics");
  EXPECT_EQ(metrics.members().size(), bench.at(list).items().size());
  for (const json::Value& m : bench.at(list).items()) {
    const std::string name = m.at("name").as_string();
    const std::string unit = m.at("unit").as_string();
    const json::Value* got = metrics.find(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->at("unit").as_string(), unit) << name;
    const std::size_t at = out.find("\nmetric " + name + " ");
    ASSERT_NE(at, std::string::npos) << name;
    EXPECT_TRUE(got->at("value").is_number()) << name << " is absent";
    const std::string printed = out.substr(at + 1, out.find('\n', at + 1) - at - 1);
    EXPECT_EQ(printed.substr(printed.size() - unit.size() - 1), " " + unit) << printed;
  }
}

class Workloads : public ::testing::TestWithParam<std::string> {};

TEST_P(Workloads, EndToEndPrintsEveryMetric) {
  expect_metrics(ledger_run(GetParam(), "0"), "end_to_end");
}

TEST_P(Workloads, TracedPrintsEveryLayerMetricAndATrace) {
  expect_metrics(ledger_run(GetParam(), "1"), "per_layer");
  const std::string trace = std::string(LEDGER_OUT_DIR) + "/" + GetParam() + ".trace.json";
  const json::Value doc = json::Value::parse(read_file(trace));
  EXPECT_EQ(doc.at("otherData").at("schema").as_string(), "casurf-trace/1");
  EXPECT_GT(doc.at("traceEvents").items().size(), 10u);
  const Launch l = launch({CASURF_REPORT_EXE, "--trace", trace},
                          std::filesystem::absolute(GetParam() + ".report.out").string());
  EXPECT_EQ(l.exit_code, 0);
  EXPECT_NE(l.out.find("core.make_simulator.pndca"), std::string::npos);
}

std::string short_name(const ::testing::TestParamInfo<std::string>& p) {
  return p.param.substr(0, p.param.find('-'));
}

INSTANTIATE_TEST_SUITE_P(All, Workloads,
                         ::testing::Values("zgb-500", "pt100-500", "diffusion-500"), short_name);

}  // namespace
