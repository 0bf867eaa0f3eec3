#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace casurf::obs {

/// Structured event tracing: fixed-capacity per-thread ring buffers of
/// timestamped spans, exported as Chrome Trace Event Format JSON
/// (chrome://tracing / Perfetto).
///
/// Same discipline as the metrics probes (metrics.hpp): a simulator's
/// phases (phase.hpp) resolve their rings ONCE at `Simulator::attach` and
/// hold raw pointers; a null ring means "tracing off" — one branch per
/// span site, never touching RNG or simulation state, so the traced
/// trajectory is bit-identical to the bare run. Each ring has one writer
/// at a time (its logical thread, or the thread that joined it), so
/// recording is lock- and atomic-free; when a ring
/// wraps, the oldest events are overwritten and a drop counter keeps the
/// loss visible in the exported footer (no silent truncation).

/// One recorded event. `name` must point at a string with static storage
/// duration (phase names are literals) — recording never allocates.
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant };

  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< steady-clock ns (same epoch as now_ns()).
  std::uint64_t dur_ns = 0;    ///< 0 for instants.
  double sim_time = 0;         ///< simulated time when the event began.
  std::uint64_t step = 0;      ///< step/sweep index when the event began.
  Kind kind = Kind::kSpan;
};

/// Fixed-capacity overwrite-oldest ring of TraceEvents. Single-writer:
/// one thread at a time may call span()/instant(), the owning thread or
/// one that has joined it; readers (export) run
/// after the run, or between steps on the coordinating thread.
class TraceRing {
 public:
  TraceRing(unsigned tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity == 0 ? 1 : capacity) {
    buf_.reserve(capacity_);
  }

  void span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
            double sim_time, std::uint64_t step) {
    push({name, start_ns, dur_ns, sim_time, step, TraceEvent::Kind::kSpan});
  }

  void instant(const char* name, double sim_time, std::uint64_t step) {
    push({name, now_ns(), 0, sim_time, step, TraceEvent::Kind::kInstant});
  }

  [[nodiscard]] unsigned tid() const { return tid_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently retained (≤ capacity).
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Total events offered to the ring since construction.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Events lost to wrap-around (recorded − retained).
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(buf_.size());
  }
  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

 private:
  void push(const TraceEvent& e) {
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
    } else {
      buf_[next_] = e;  // overwrite the oldest
      next_ = (next_ + 1) % capacity_;
    }
    ++recorded_;
  }

  unsigned tid_;
  std::size_t capacity_;
  std::vector<TraceEvent> buf_;
  std::size_t next_ = 0;  ///< index of the oldest event once wrapped
  std::uint64_t recorded_ = 0;
};

/// Owns one ring per logical thread (tid 0 = the simulation thread, tid
/// k+1 = threaded PNDCA's worker k). Ring creation is
/// mutex-guarded with stable references, mirroring MetricsRegistry;
/// recording into a ring is uncontended single-writer.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;
  /// The largest ring a caller may ask for: a TraceEvent is 48 bytes, so
  /// 192 MB a ring, reserved when the ring is made.
  static constexpr std::size_t kMaxCapacity = 1u << 22;

  explicit Tracer(std::size_t ring_capacity = kDefaultCapacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The ring for logical thread `tid`, created on first use. The
  /// reference stays valid for the tracer's lifetime.
  TraceRing& ring(unsigned tid);
  /// Label a ring in the exported trace ("main", "worker3", ...).
  void set_thread_name(unsigned tid, std::string name);
  /// Cross-process correlation id stamped into the exported footer; the
  /// serve daemon hands each worker one ("job-<id>") so `casurf_report
  /// --merge-traces` can label the stitched lanes.
  void set_trace_id(std::string id);
  [[nodiscard]] std::string trace_id() const;

  [[nodiscard]] std::size_t ring_capacity() const { return ring_capacity_; }
  /// Steady-clock origin of this trace's relative timestamps. On Linux the
  /// steady clock is CLOCK_MONOTONIC (shared epoch across processes on one
  /// host), which is what lets --merge-traces clock-align trace files from
  /// different processes.
  [[nodiscard]] std::uint64_t t0_ns() const { return t0_ns_; }
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// The whole trace as Chrome Trace Event Format JSON: "X" complete
  /// events (ts/dur in microseconds relative to tracer construction),
  /// "i" instants, "M" thread_name metadata, and an `otherData` footer
  /// (schema "casurf-trace/1") carrying per-ring recorded/retained/dropped
  /// counts so wrap-around loss is never silent.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Write chrome_trace_json() through the atomic tmp+fsync+rename path.
  void write(const std::string& path) const;

 private:
  struct Impl;
  Impl* impl_;
  std::size_t ring_capacity_;
  std::uint64_t t0_ns_;
};

}  // namespace casurf::obs
