#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace casurf::obs {

class Phase;

/// The phases a simulator owns, in the order they were made;
/// Simulator::attach resolves every one.
using Phases = std::vector<Phase*>;

/// A named, timed region of a run (`vssm/step`, `pndca/sweep`, ...): one
/// probe that records each interval, read from one clock pair, into the
/// phase's metrics timer and as a span on its trace ring, so the timer's
/// total and count are always its spans' sum and number. The name is held
/// once; attach() resolves the timer and the ring once, a null sink turns
/// its half off, and with both off every record site costs one branch.
class Phase {
 public:
  /// A phase recorded on trace ring `ring` under `name`, which must have
  /// static storage (TraceEvent keeps the pointer). A simulator's ring 0 is
  /// its own thread and ring k + 1 PNDCA's worker k; the timer is `name` on
  /// ring 0 and `name/worker<k>` on ring k + 1.
  explicit Phase(const char* name, unsigned ring = 0) : name_(name), ring_id_(ring) {}
  /// The same, listed in `owner` so its simulator's attach resolves it.
  Phase(Phases& owner, const char* name, unsigned ring = 0) : Phase(name, ring) {
    owner.push_back(this);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  void attach(const Sinks& sinks) {
    timer_ = nullptr;
    if (sinks.metrics != nullptr) {
      timer_ = &sinks.metrics->timer(
          ring_id_ == 0 ? std::string(name_)
                        : std::string(name_) + "/worker" + std::to_string(ring_id_ - 1));
    }
    ring_ = sinks.tracer != nullptr ? &sinks.tracer->ring(ring_id_) : nullptr;
  }

  [[nodiscard]] bool on() const { return timer_ != nullptr || ring_ != nullptr; }

  /// Records [start_ns, end_ns), two now_ns() readings, at simulated time
  /// `sim_time` and step `step`. The ring's single-writer rule holds: a
  /// worker ring's phases are recorded by the caller after the join.
  void record(std::uint64_t start_ns, std::uint64_t end_ns, double sim_time,
              std::uint64_t step) const {
    if (timer_ != nullptr) timer_->add_ns(end_ns - start_ns);
    if (ring_ != nullptr) ring_->span(name_, start_ns, end_ns - start_ns, sim_time, step);
  }

 private:
  const char* name_;
  unsigned ring_id_;
  Timer* timer_ = nullptr;
  TraceRing* ring_ = nullptr;
};

/// Records [construction, destruction) into a phase; a phase with both
/// sinks off costs a branch at each end.
class ScopedPhase {
 public:
  ScopedPhase(const Phase& phase, double sim_time, std::uint64_t step)
      : phase_(phase),
        sim_time_(sim_time),
        step_(step),
        start_(phase.on() ? now_ns() : 0) {}
  ~ScopedPhase() {
    if (phase_.on()) phase_.record(start_, now_ns(), sim_time_, step_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const Phase& phase_;
  double sim_time_;
  std::uint64_t step_;
  std::uint64_t start_;
};

}  // namespace casurf::obs
