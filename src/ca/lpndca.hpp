#pragma once

#include <cstdint>
#include <memory>

#include "ca/rate_cache.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "rng/xoshiro.hpp"

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
class LPndcaSimulator final : public Simulator {
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
  [[nodiscard]] ChunkWeighting weighting() const { return weighting_; }

  /// The incremental enabled-rate cache (slot 0 == the partition), or
  /// nullptr under size-proportional weighting. For the invariant tests.
  [[nodiscard]] const EnabledRateCache* rate_cache() const { return rate_cache_.get(); }

  /// Checkpointing; the rate cache is rebuilt from the restored
  /// configuration rather than serialized.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Brute-force verifies the enabled-rate cache; repair rebuilds it.
  void audit_derived_state(AuditReport& report, bool repair) override;

  /// Test-only mutable cache access for the audit suite.
  [[nodiscard]] EnabledRateCache* mutable_rate_cache_for_test() {
    return rate_cache_.get();
  }

 private:
  void trial_at(SiteIndex s);
  [[nodiscard]] ChunkId select_chunk();

  Partition partition_;
  Xoshiro256 rng_;
  std::uint32_t trials_per_batch_;
  TimeMode time_mode_;
  ChunkWeighting weighting_;
  double rate_nk_;
  std::vector<double> chunk_cumulative_;  // cumulative chunk sizes for selection
  std::unique_ptr<EnabledRateCache> rate_cache_;  // kRateWeighted only
  obs::Timer* step_timer_ = nullptr;             // lpndca/step
  obs::Timer* select_timer_ = nullptr;           // lpndca/select
};

}  // namespace casurf
