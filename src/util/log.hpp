#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace casurf::log {

/// Structured JSON-lines logging for the serving layer. Every event is one
/// self-contained JSON object on one line:
///
///   {"ts":1754640000.123456,"mono_ns":8123456789,"level":"info",
///    "component":"serve.daemon","event":"job_scheduled","job":7,...}
///
/// Design constraints (docs/OBSERVABILITY.md, "Serving telemetry"):
///   - a line is emitted with a single write(2) on an O_APPEND fd, so
///     concurrent writers — the daemon's runner + HTTP threads AND forked
///     casurf_run supervisors sharing the inherited fd — never interleave
///     bytes within a line;
///   - a disabled site (level below threshold) costs one relaxed atomic
///     load plus a branch, the same discipline as obs::MetricsRegistry
///     probes and fail::Failpoint sites.
///
/// Configuration precedence: compiled default (warn → stderr), then the
/// CASURF_LOG environment variable (`configure_from_env`), then explicit
/// --log-level / --log-file flags (`configure`).

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

[[nodiscard]] const char* to_string(Level level);

/// Parse "debug"/"info"/"warn"/"error"/"off" into `out`; false on any
/// other spelling (out untouched).
[[nodiscard]] bool parse_level(std::string_view text, Level& out);

/// Point the logger at `path` ("" or "stderr" → standard error) with the
/// given threshold. Returns the empty string on success, else a message
/// naming the unwritable path. The sink fd is opened O_APPEND|O_CLOEXEC: append
/// atomicity across forked supervisors, no leak into exec'd workers.
std::string configure(Level level, const std::string& path);

/// Apply the CASURF_LOG environment variable, e.g.
/// `CASURF_LOG=level=debug,file=/tmp/casurf.log` (a bare `debug` is
/// shorthand for `level=debug`). Unset/empty → no change. Returns "" on
/// success, else a parse error.
std::string configure_from_env();

/// Current threshold.
[[nodiscard]] Level threshold();

namespace detail {
extern std::atomic<int> g_level;  ///< Level as int; relaxed site-gate load
void emit_line(std::string&& line);  // appends '\n', single write(2)
[[nodiscard]] std::uint64_t mono_ns();
[[nodiscard]] double wall_seconds();
}  // namespace detail

/// One site's token bucket: `rate` tokens/second, up to `burst` banked.
/// Use as a function-local static next to a hot log site so a failure
/// storm (restart loops, scrape errors) cannot flood the journal:
///
///   static log::RateLimit limit(1.0, 5.0);
///   log::Event(log::Level::kWarn, "serve.daemon", "scrape_failed", &limit)
///       .str("why", err);
///
/// allow() is thread-safe.
class RateLimit {
 public:
  constexpr RateLimit(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  [[nodiscard]] bool allow();

 private:
  double rate_;
  double burst_;
  std::mutex mutex_;
  double tokens_;
  std::uint64_t last_ns_ = 0;
};

/// Fluent one-line event builder. Constructing below the threshold (or
/// with an exhausted RateLimit) arms nothing; the destructor of an armed
/// Event emits the finished line. Field values go through the same escaper
/// as every other JSON surface, so hostile strings cannot break a line.
class Event {
 public:
  Event(Level level, std::string_view component, std::string_view event,
        RateLimit* limit = nullptr);
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  Event& str(std::string_view key, std::string_view value);
  Event& u64(std::string_view key, std::uint64_t value);
  Event& i64(std::string_view key, std::int64_t value);
  Event& f64(std::string_view key, double value);
  Event& boolean(std::string_view key, bool value);

 private:
  std::string line_;  ///< empty ⇔ disarmed
};

}  // namespace casurf::log
