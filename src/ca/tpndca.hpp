#pragma once

#include <cstdint>

#include "ca/partitioned.hpp"
#include "partition/type_partition.hpp"

namespace casurf {

/// Type-partitioned PNDCA (paper section 5, "Another approach using
/// partitions"; the generalization of Kortlüke's algorithm). The set of
/// reaction types T is split into subsets T_j whose patterns share a single
/// bond direction; because each inner sweep executes ONE reaction type at a
/// time, the non-overlap rule only has to separate a type from itself and a
/// two-chunk (checkerboard) partition suffices — doubling the concurrency
/// relative to the five-chunk full partition, at the price of less work per
/// sweep.
///
/// Per step, sweeps_per_step() inner sweeps run; each selects a subset T_j
/// with probability K_Tj / K, a type within it with probability k_i / K_Tj,
/// a chunk of the subset's partition, and executes the type at every
/// enabled site of the chunk. The sweep count is the average chunk count
/// over subsets, which makes the expected number of executions per step
/// match RSM's MC step for every type.
///
/// Chunk selection within a subset is uniform by default. With
/// `ChunkWeighting::kRateWeighted` it is weighted by the number of sites
/// where the *chosen type* is currently enabled in each chunk of the
/// subset's sub-partition (the rate factor k_i is common to the chunks, so
/// the enabled counts alone give the right distribution), served by the
/// incremental `EnabledRateCache` — one slot per subset. A type enabled
/// nowhere falls back to the uniform draw.
class TPndcaSimulator final : public PartitionedSimulator {
 public:
  TPndcaSimulator(const ReactionModel& model, Configuration config,
                  std::vector<TypeSubset> subsets, std::uint64_t seed,
                  ChunkWeighting weighting = ChunkWeighting::kStructural);

  void mc_step() override;
  [[nodiscard]] std::string name() const override { return "TPNDCA"; }

  [[nodiscard]] const std::vector<TypeSubset>& subsets() const { return subsets_; }
  [[nodiscard]] const Partition* spatial_partition() const override {
    return &subsets_.front().chunks;
  }
  [[nodiscard]] std::uint32_t sweeps_per_step() const { return sweeps_per_step_; }

 private:
  [[nodiscard]] ChunkId select_chunk(std::size_t subset_index, ReactionIndex chosen);

  // The base's cache, under kRateWeighted, has slot j == subset j's
  // sub-partition.
  std::vector<TypeSubset> subsets_;
  std::uint32_t sweeps_per_step_ = 0;
  std::vector<double> subset_cumulative_;            // cumulative K_Tj
  std::vector<std::vector<double>> type_cumulative_;  // per subset, cumulative k_i
  std::vector<double> chunk_cumulative_;  // the chosen type's chunk counts, cumulative
  obs::Phase step_phase_{phases_, "tpndca/step"};
  obs::Phase sweep_phase_{phases_, "tpndca/sweep"};
};

}  // namespace casurf
