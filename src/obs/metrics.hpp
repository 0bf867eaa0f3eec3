#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace casurf::obs {

/// Low-overhead counters/timers/histograms for the simulation hot paths.
///
/// Usage discipline: a `MetricsRegistry` owns every probe and hands out
/// stable references; hot code resolves each probe by name ONCE (at
/// `Simulator::attach` time) and keeps the pointer. A null pointer
/// means "metrics off" — every probe call degrades to a single branch, so
/// the instrumented trajectory is bit-identical with and without metrics
/// (probes never touch RNG or simulation state) and the disabled overhead
/// stays under the noise floor.

/// Monotonic clock read in nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic event counter. Relaxed atomics: worker threads may bump the
/// same counter concurrently; totals are exact, only inter-counter ordering
/// is unspecified.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulating wall-clock timer: total/count/max of recorded spans.
class Timer {
 public:
  void add_ns(std::uint64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur && !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const {
    return max_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(total_ns()) / static_cast<double>(n);
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Power-of-two histogram of nonnegative integer samples (bucket b counts
/// values v with bit_width(v) == b, i.e. [2^(b-1), 2^b); bucket 0 counts
/// zeros). 65 buckets cover the whole uint64 range — coarse, fixed-size,
/// and allocation-free on the record path.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  /// Inclusive upper bound of bucket b (2^b - 1; bucket 0 holds only 0).
  [[nodiscard]] static std::uint64_t bucket_limit(std::size_t b) {
    return b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Point-in-time level (queue depth, RSS bytes, jobs per state). Unlike a
/// Counter a gauge can move both ways; stored as a double so derived
/// rates (trials/s) and byte totals share one primitive. set()/add() are
/// relaxed-atomic: last write wins, which is the Prometheus gauge
/// contract.
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  void add(double d) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, encode(decode(cur) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  // Bit-pattern punning keeps the field a plain atomic<uint64_t>, which
  // every target lowers to lock-free loads/stores (atomic<double> RMW
  // support is spottier).
  static std::uint64_t encode(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double decode(std::uint64_t bits) {
    double v = 0;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Owns every probe of one run, keyed by slash-separated names (see
/// docs/OBSERVABILITY.md for the taxonomy). Registration is mutex-guarded
/// and idempotent; returned references stay valid for the registry's
/// lifetime, so hot paths hold the pointer instead of re-resolving.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Timer& timer(const std::string& name);
  Histogram& histogram(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Point-in-time copies, sorted by name (deterministic report order).
  struct CounterSample {
    std::string name;
    std::uint64_t value;
  };
  struct TimerSample {
    std::string name;
    std::uint64_t total_ns, count, max_ns;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count, sum;
    std::uint64_t buckets[Histogram::kBuckets];
  };
  struct GaugeSample {
    std::string name;
    double value;
  };
  [[nodiscard]] std::vector<CounterSample> counters() const;
  [[nodiscard]] std::vector<TimerSample> timers() const;
  [[nodiscard]] std::vector<HistogramSample> histograms() const;
  [[nodiscard]] std::vector<GaugeSample> gauges() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace casurf::obs
