#pragma once

#include <cstdint>

#include "ca/partitioned.hpp"
#include "obs/metrics.hpp"

namespace casurf {

/// L-PNDCA (paper section 5, "general structure"): per step, chunks are
/// drawn with probability proportional to their size and a batch of L
/// random sites *within* the selected chunk perform NDCA trials, until N
/// trials have been spent. L tunes the accuracy/parallelism trade-off:
///
///   - small L: little time is spent inside a chunk before other chunks get
///     a chance, so the kinetic bias is small — but so is the parallel
///     batch. L = 1 reproduces RSM-like kinetics (Fig 9a).
///   - large L: big parallel batches, growing bias; oscillatory dynamics
///     drift and eventually die (Fig 9b).
///   - |P| = 1 with L = N, and |P| = N with L = 1, are *exactly* RSM
///     (Fig 8) — sites are then selected uniformly with replacement.
///
/// The paper's chunk-selection probability "|Pi| / |P|" is read as
/// |Pi| / N, the only normalizable reading (see DESIGN.md).
///
/// With `ChunkWeighting::kRateWeighted`, chunk draws are weighted by the
/// rate of currently-enabled reactions per chunk instead of by size
/// (paper's option 4 applied to the batched structure), served by the
/// incremental `EnabledRateCache`; a zero-rate surface falls back to the
/// size-proportional draw so the trial budget still drains.
class LPndcaSimulator final : public PartitionedSimulator {
 public:
  /// `trials_per_batch` is the paper's L; it is clipped per batch to the
  /// remaining trial budget N - trials, as in the paper's listing.
  LPndcaSimulator(const ReactionModel& model, Configuration config,
                  Partition partition, std::uint64_t seed,
                  std::uint32_t trials_per_batch,
                  TimeMode time_mode = TimeMode::kStochastic,
                  ChunkWeighting weighting = ChunkWeighting::kStructural);

  void mc_step() override;
  [[nodiscard]] std::string name() const override { return "L-PNDCA"; }

  void attach(const obs::Sinks& sinks) override;

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] const Partition* spatial_partition() const override {
    return &partition_;
  }
  [[nodiscard]] std::uint32_t trials_per_batch() const { return trials_per_batch_; }

 private:
  [[nodiscard]] ChunkId select_chunk();

  // The base's cache, under kRateWeighted, has slot 0 == the partition.
  Partition partition_;
  std::uint32_t trials_per_batch_;
  TrialClock clock_;
  std::vector<double> chunk_cumulative_;  // cumulative chunk sizes for selection
  obs::Timer* step_timer_ = nullptr;             // lpndca/step
  obs::Timer* select_timer_ = nullptr;           // lpndca/select
};

}  // namespace casurf
