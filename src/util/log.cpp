#include "util/log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json.hpp"

namespace casurf::log {

const char* to_string(Level level) {
  switch (level) {
    case Level::kDebug:
      return "debug";
    case Level::kInfo:
      return "info";
    case Level::kWarn:
      return "warn";
    case Level::kError:
      return "error";
    case Level::kOff:
      return "off";
  }
  return "unknown";
}

bool parse_level(std::string_view text, Level& out) {
  if (text == "debug") return out = Level::kDebug, true;
  if (text == "info") return out = Level::kInfo, true;
  if (text == "warn") return out = Level::kWarn, true;
  if (text == "error") return out = Level::kError, true;
  if (text == "off") return out = Level::kOff, true;
  return false;
}

namespace detail {

std::atomic<int> g_level{static_cast<int>(Level::kWarn)};

namespace {
// The sink fd. Never closed while another thread may be mid-emit: swaps
// leak the old fd by design (configure happens once near main; a handful
// of fds is cheaper than a lock on every line).
std::atomic<int> g_fd{STDERR_FILENO};
}  // namespace

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double wall_seconds() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count()) /
         1e6;
}

void emit_line(std::string&& line) {
  line += '\n';
  const int fd = g_fd.load(std::memory_order_acquire);
  // One write(2) per line is the interleaving guarantee; the resume loop
  // only runs in the (regular-file) corner where the kernel wrote a prefix.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // sink went away; logging must never take the process down
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace detail

std::string configure(Level level, const std::string& path) {
  if (!path.empty() && path != "stderr") {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
      return "cannot open log file " + path + ": " + std::strerror(errno);
    }
    detail::g_fd.store(fd, std::memory_order_release);
  } else {
    detail::g_fd.store(STDERR_FILENO, std::memory_order_release);
  }
  detail::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return {};
}

std::string configure_from_env() {
  const char* env = std::getenv("CASURF_LOG");
  if (env == nullptr || *env == '\0') return {};
  Level level = threshold();
  std::string file;
  std::string_view rest(env);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view term = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (term.empty()) continue;
    if (term.rfind("level=", 0) == 0) term = term.substr(6);
    if (parse_level(term, level)) continue;
    if (term.rfind("file=", 0) == 0) {
      file = std::string(term.substr(5));
      continue;
    }
    return "CASURF_LOG: unrecognised term \"" + std::string(term) + '"';
  }
  return configure(level, file);
}

Level threshold() {
  return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
}

bool RateLimit::allow() {
  const std::uint64_t now = detail::mono_ns();
  std::lock_guard lock(mutex_);
  if (last_ns_ != 0 && now > last_ns_) {
    tokens_ = std::min(
        burst_, tokens_ + rate_ * static_cast<double>(now - last_ns_) / 1e9);
  }
  last_ns_ = now;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

Event::Event(Level level, std::string_view component, std::string_view event,
             RateLimit* limit) {
  if (static_cast<int>(level) <
      detail::g_level.load(std::memory_order_relaxed)) {
    return;
  }
  if (limit != nullptr && !limit->allow()) return;
  char head[64];
  std::snprintf(head, sizeof(head), "{\"ts\":%.6f,\"mono_ns\":%" PRIu64,
                detail::wall_seconds(), detail::mono_ns());
  line_ = head;
  line_ += ",\"level\":\"";
  line_ += to_string(level);
  line_ += "\",\"component\":";
  obs::json::append_quoted(line_, component);
  line_ += ",\"event\":";
  obs::json::append_quoted(line_, event);
}

Event::~Event() {
  if (line_.empty()) return;
  line_ += '}';
  detail::emit_line(std::move(line_));
}

Event& Event::str(std::string_view key, std::string_view value) {
  if (line_.empty()) return *this;
  line_ += ',';
  obs::json::append_quoted(line_, key);
  line_ += ':';
  obs::json::append_quoted(line_, value);
  return *this;
}

Event& Event::u64(std::string_view key, std::uint64_t value) {
  if (line_.empty()) return *this;
  line_ += ',';
  obs::json::append_quoted(line_, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), ":%" PRIu64, value);
  line_ += buf;
  return *this;
}

Event& Event::i64(std::string_view key, std::int64_t value) {
  if (line_.empty()) return *this;
  line_ += ',';
  obs::json::append_quoted(line_, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), ":%" PRId64, value);
  line_ += buf;
  return *this;
}

Event& Event::f64(std::string_view key, double value) {
  if (line_.empty()) return *this;
  line_ += ',';
  obs::json::append_quoted(line_, key);
  line_ += ':';
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // JSON has no NaN/Inf; mirror obs::json::Writer::number.
  if (std::strstr(buf, "nan") != nullptr || std::strstr(buf, "inf") != nullptr) {
    line_ += "null";
  } else {
    line_ += buf;
  }
  return *this;
}

Event& Event::boolean(std::string_view key, bool value) {
  if (line_.empty()) return *this;
  line_ += ',';
  obs::json::append_quoted(line_, key);
  line_ += value ? ":true" : ":false";
  return *this;
}

}  // namespace casurf::log
