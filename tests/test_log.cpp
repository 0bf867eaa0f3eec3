// Structured JSON-lines logging (util/log.hpp): line schema and field
// round-trip through the shared JSON parser, threshold filtering, token
// buckets, and the single-write atomicity contract under concurrent
// writers. The suite reconfigures the process-global logger per test,
// which is safe because gtest runs tests serially within this binary.

#include "util/log.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"

namespace casurf::log {
namespace {

using obs::json::Value;

std::string temp_log(const char* tag) {
  return testing::TempDir() + "/casurf_log_" + tag + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string> lines_of(const std::string& path) {
  std::vector<std::string> out;
  std::string text;
  try {
    text = io::read_file(path);
  } catch (const std::exception&) {
    return out;  // never written — the filtered cases
  }
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    // The atomicity contract: every emitted line is newline-terminated.
    EXPECT_NE(nl, std::string::npos) << "torn final line: " << text.substr(pos);
    if (nl == std::string::npos) nl = text.size();
    out.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

TEST(LogLevel, ParseAcceptsTheDocumentedSpellingsOnly) {
  Level level = Level::kError;
  EXPECT_TRUE(parse_level("debug", level));
  EXPECT_EQ(level, Level::kDebug);
  EXPECT_TRUE(parse_level("info", level));
  EXPECT_EQ(level, Level::kInfo);
  EXPECT_TRUE(parse_level("warn", level));
  EXPECT_TRUE(parse_level("error", level));
  EXPECT_TRUE(parse_level("off", level));
  EXPECT_EQ(level, Level::kOff);
  EXPECT_FALSE(parse_level("verbose", level));
  EXPECT_FALSE(parse_level("", level));
  EXPECT_FALSE(parse_level("WARN", level));
  EXPECT_EQ(level, Level::kOff) << "failed parse must not touch out";
  EXPECT_STREQ(to_string(Level::kWarn), "warn");
}

TEST(LogEvent, RoundTripsEveryFieldKindThroughTheJsonParser) {
  const std::string path = temp_log("roundtrip");
  ASSERT_EQ(configure(Level::kDebug, path), "");

  Event(Level::kInfo, "test.log", "kinds")
      .str("name", "with \"quotes\" and \\slashes\\\nnewline")
      .u64("big", std::uint64_t{1} << 53)  // Value parses numbers as double
      .i64("neg", -42)
      .f64("pi", 3.5)
      .f64("bad", std::nan(""))  // mirrors obs::json::Writer: NaN → null
      .boolean("flag", true);

  const std::vector<std::string> lines = lines_of(path);
  ASSERT_EQ(lines.size(), 1u);
  const Value v = Value::parse(lines[0]);
  EXPECT_GT(v.at("ts").as_number(), 1e9);  // sane wall clock (2001+)
  EXPECT_GT(v.at("mono_ns").as_u64(), 0u);
  EXPECT_EQ(v.at("level").as_string(), "info");
  EXPECT_EQ(v.at("component").as_string(), "test.log");
  EXPECT_EQ(v.at("event").as_string(), "kinds");
  EXPECT_EQ(v.at("name").as_string(), "with \"quotes\" and \\slashes\\\nnewline");
  EXPECT_EQ(v.at("big").as_u64(), std::uint64_t{1} << 53);
  EXPECT_EQ(v.at("neg").as_number(), -42);
  EXPECT_DOUBLE_EQ(v.at("pi").as_number(), 3.5);
  EXPECT_TRUE(v.at("bad").is_null());
  EXPECT_TRUE(v.at("flag").as_bool());
  ASSERT_EQ(configure(Level::kWarn, ""), "");  // restore the default sink
}

TEST(LogEvent, ThresholdFiltersLowerLevels) {
  const std::string path = temp_log("threshold");
  ASSERT_EQ(configure(Level::kWarn, path), "");
  EXPECT_EQ(threshold(), Level::kWarn);

  Event(Level::kDebug, "test.log", "dropped_debug");
  Event(Level::kInfo, "test.log", "dropped_info");
  Event(Level::kWarn, "test.log", "kept_warn");
  Event(Level::kError, "test.log", "kept_error");

  const std::vector<std::string> lines = lines_of(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Value::parse(lines[0]).at("event").as_string(), "kept_warn");
  EXPECT_EQ(Value::parse(lines[1]).at("event").as_string(), "kept_error");
  ASSERT_EQ(configure(Level::kWarn, ""), "");
}

TEST(LogEvent, OffSinkEmitsNothing) {
  const std::string path = temp_log("off");
  ASSERT_EQ(configure(Level::kOff, path), "");
  Event(Level::kError, "test.log", "suppressed");
  EXPECT_TRUE(lines_of(path).empty());
  ASSERT_EQ(configure(Level::kWarn, ""), "");
}

TEST(LogConfigure, UnwritablePathIsAnError) {
  const std::string err =
      configure(Level::kInfo, testing::TempDir() + "/no-such-dir/x.jsonl");
  EXPECT_NE(err, "");
  ASSERT_EQ(configure(Level::kWarn, ""), "");
}

TEST(LogConfigure, EnvVariableParsesLevelAndFile) {
  const std::string path = temp_log("env");
  ::setenv("CASURF_LOG", ("level=debug,file=" + path).c_str(), 1);
  EXPECT_EQ(configure_from_env(), "");
  EXPECT_EQ(threshold(), Level::kDebug);
  Event(Level::kDebug, "test.log", "via_env");
  ASSERT_EQ(lines_of(path).size(), 1u);

  ::setenv("CASURF_LOG", "info", 1);  // bare level shorthand
  EXPECT_EQ(configure_from_env(), "");
  EXPECT_EQ(threshold(), Level::kInfo);

  ::setenv("CASURF_LOG", "level=bogus", 1);
  EXPECT_NE(configure_from_env(), "");

  ::unsetenv("CASURF_LOG");
  EXPECT_EQ(configure_from_env(), "");  // unset → no change, no error
  ASSERT_EQ(configure(Level::kWarn, ""), "");
}

// Logging is always compiled in, so explicit configuration is accepted and
// takes effect.
TEST(LogConfigure, CompileOutContractMatchesBuildFlavor) {
  EXPECT_EQ(configure(Level::kInfo, ""), "");
  EXPECT_EQ(threshold(), Level::kInfo);
  ASSERT_EQ(configure(Level::kWarn, ""), "");
}

TEST(LogRateLimit, BurstThenRefusalThenRefill) {
  // Effectively no refill within the test's lifetime: exactly burst allowed.
  RateLimit stingy(1e-6, 3.0);
  EXPECT_TRUE(stingy.allow());
  EXPECT_TRUE(stingy.allow());
  EXPECT_TRUE(stingy.allow());
  EXPECT_FALSE(stingy.allow());
  EXPECT_FALSE(stingy.allow());

  // Refill far faster than the calls: never refuses.
  RateLimit generous(1e9, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(generous.allow());
}

TEST(LogEvent, ConcurrentWritersNeverTearLines) {
  const std::string path = temp_log("threads");
  ASSERT_EQ(configure(Level::kInfo, path), "");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  // A payload long enough that a torn write would be visible as an
  // unparseable line.
  const std::string payload(256, 'x');
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Event(Level::kInfo, "test.log", "burst")
            .i64("thread", t)
            .i64("seq", i)
            .str("pad", payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<std::string> lines = lines_of(path);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> seen(kThreads, 0);
  for (const std::string& line : lines) {
    const Value v = Value::parse(line);  // throws on a torn line
    EXPECT_EQ(v.at("pad").as_string(), payload);
    ++seen[static_cast<std::size_t>(v.at("thread").as_u64())];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], kPerThread);
  ASSERT_EQ(configure(Level::kWarn, ""), "");
}

}  // namespace
}  // namespace casurf::log
