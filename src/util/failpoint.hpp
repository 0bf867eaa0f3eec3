#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace casurf::fail {

/// Deterministic fault injection: named failpoints compiled into the I/O
/// and threading layers, armed at runtime from a spec string
/// (casurf_run --failpoints / env CASURF_FAILPOINTS). Each armed failpoint
/// fires according to its trigger:
///
///   NAME=hit@N    fire exactly on the N-th evaluation since arming (once)
///   NAME=prob@P   fire each evaluation with probability P, drawn from a
///                 CounterRng stream keyed by (seed, NAME, evaluation index)
///                 — so a given (seed, spec) replays the identical firing
///                 pattern, which is what makes torture runs reproducible
///
/// Same discipline as the metrics probes (obs/metrics.hpp): a disarmed
/// registry costs one relaxed atomic load per site. Firing never touches
/// simulation RNG or state: a run with failpoints that never fire is
/// bit-identical to a bare run.
///
/// The registry is process-global. Arming is meant for one place near
/// main(); the wired sites only evaluate.

/// Parse `spec` without arming anything; returns the empty string when the
/// spec is well-formed, else a message naming the first bad term.
[[nodiscard]] std::string validate(const std::string& spec);

/// Replace the armed set with `spec` (validate() grammar; the empty spec
/// disarms everything). Returns the empty string on success, else the
/// validation error — in which case the previously armed set is unchanged.
std::string configure(const std::string& spec);

/// Seed of the prob@P trigger streams (defaults to 0). Set it to the run's
/// --seed so the injected failures replay with the trajectory.
void set_seed(std::uint64_t seed);

/// Disarm every failpoint and forget all evaluation/fire counts.
void reset();

/// Names currently armed, in spec order.
[[nodiscard]] std::vector<std::string> armed_names();

/// Evaluations of / fires by the named failpoint since it was armed
/// (0 for unarmed names — disarmed sites do not count).
[[nodiscard]] std::uint64_t evaluations(const std::string& name);
[[nodiscard]] std::uint64_t fires(const std::string& name);

namespace detail {
extern std::atomic<int> g_armed;  ///< number of armed failpoints
[[nodiscard]] bool should_fail(const char* name);
}  // namespace detail

/// A wired failpoint site. Constructed (constexpr) with the site's name;
/// fire() asks the registry whether the injected failure triggers now.
/// Disarmed cost: one relaxed load.
class Failpoint {
 public:
  explicit constexpr Failpoint(const char* name) : name_(name) {}

  [[nodiscard]] bool fire() const {
    if (detail::g_armed.load(std::memory_order_relaxed) == 0) return false;
    return detail::should_fail(name_);
  }

 private:
  const char* name_;
};

}  // namespace casurf::fail
