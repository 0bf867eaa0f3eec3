#pragma once

#include <cstdint>
#include <vector>

#include "ca/pndca.hpp"

namespace casurf {

/// Cost parameters of the simulated parallel machine used to reproduce the
/// paper's Fig 7, whose p axis (2..10) runs past this 4-core host's cores;
/// the model is needed only for p > 4 (see DESIGN.md, substitutions).
/// Values are representative of the early-2000s clusters the paper targets;
/// `t_site_seconds` should be calibrated to the real measured per-trial
/// cost so absolute times are honest for this host.
struct MachineParams {
  double t_site_seconds = 1e-7;      ///< one PNDCA site trial
  double serial_fraction = 0.02;     ///< schedule planning + time bookkeeping
  double barrier_alpha = 4e-5;       ///< per-sweep synchronization, fixed part
  double barrier_beta = 1.5e-5;      ///< per-sweep synchronization, * log2(p)
};

/// Predicted execution times for one parameter point of the speedup study.
struct SpeedupPoint {
  std::int32_t side = 0;  ///< lattice side length (the paper's N axis)
  int processors = 1;
  double t1_seconds = 0;  ///< T(1, N)
  double tp_seconds = 0;  ///< T(p, N)
  [[nodiscard]] double speedup() const { return t1_seconds / tp_seconds; }
};

/// Analytic PRAM-with-barriers model of the threaded PNDCA sweep: each chunk
/// sweep distributes its sites over p processors (perfect static balance up
/// to the ceiling term, which is what the real test phase does), pays one
/// barrier per sweep, and a serial fraction per trial for the parts the
/// algorithm keeps on one processor (chunk scheduling, time advance).
///
///   T(p) = steps * sum_chunks [ ceil(|c| / p) * t_site * (1 - sigma)
///                               + |c| * t_site * sigma
///                               + alpha + beta * log2(p) ]     (p > 1)
///   T(1) = steps * sum_chunks [ |c| * t_site ]                 (no barrier)
///
/// The chunk sizes come from the *actual* partition, so load imbalance of
/// irregular partitions is captured, not assumed away.
class SimulatedMachine {
 public:
  explicit SimulatedMachine(MachineParams params) : params_(params) {}

  [[nodiscard]] const MachineParams& params() const { return params_; }

  /// Predict T(1) and T(p) for running `steps` PNDCA steps over the given
  /// partition (all chunks once per step).
  [[nodiscard]] SpeedupPoint predict(const Partition& partition, int processors,
                                     std::uint64_t steps) const;

  /// Measure the real sequential per-trial cost of PNDCA on this host by
  /// running `steps` steps of the given simulator and return a parameter
  /// set with `t_site_seconds` replaced by the measurement.
  [[nodiscard]] static MachineParams calibrate(PndcaSimulator& sim,
                                               std::uint64_t steps,
                                               MachineParams base = {});

 private:
  MachineParams params_;
};

}  // namespace casurf
