#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ca/partitioned.hpp"

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
/// The draw law: trial t in [0, N) of MC step k owns the counter stream
/// word of (k, t). Its first output samples its reaction type, slot and
/// flip as in PNDCA's (sweep, site) streams (sample_types), and its second
/// its position in the chunk its batch selected, (draw * |chunk|) >> 64.
/// The draws of a step are thus a pure function of (seed, k), whichever
/// call draws them and whatever L is. Chunk selection (one uniform per
/// batch) and time (one Gamma(batch, N K) draw per batch) come from the
/// base's sequential generator.
///
/// A batch is drawn from its own first trial index in pieces of at most
/// kSpan trials (sample_trials, then chunk_sites), and each piece runs
/// through the base's run_trials. The trials of a batch lie in one chunk,
/// so under the block rule a commit changes no other trial's test unless
/// the two share a site. Draws are with replacement, so a piece may repeat
/// sites: each 8-lane pass tests every trial left in the piece and ends
/// after the first committed hit whose site recurs later in the piece, and
/// the next pass starts at the trial after that hit. Commits stay serial,
/// in draw order, so the trajectory is the one-trial-at-a-time loop's under
/// the same draws. With L below a lane block (kLanes), or a partition that
/// fails the block rule (Partition::single_chunk, Fig 8's |P| = 1, L = N
/// limit), the step's trials are drawn in blocks of kSpan trial indices
/// aligned to the step start and every span holds one trial.
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

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] const Partition* spatial_partition() const override {
    return &partition_;
  }
  [[nodiscard]] std::uint32_t trials_per_batch() const { return trials_per_batch_; }

  /// Checkpointing: the base's section, then L. The trial streams are keyed
  /// by (seed, step), so the step counter the base saves resumes them;
  /// restore refuses a checkpoint written with another L.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

 private:
  [[nodiscard]] ChunkId select_chunk();

  /// Trials [t, end) of the current step, the batch that selected `chunk`:
  /// draws them from their own first index in pieces of at most kSpan,
  /// maps each piece's draws onto the chunk's sites and runs the piece
  /// through run_trials. Only for partitions that pass the block rule, at
  /// L >= kLanes (pieces_).
  void run_pieces(std::uint64_t t, std::uint64_t end, const std::vector<SiteIndex>& chunk);

  // The base's cache, under kRateWeighted, has slot 0 == the partition.
  Partition partition_;
  std::uint32_t trials_per_batch_;
  TrialClock clock_;
  std::vector<double> chunk_cumulative_;  // cumulative chunk sizes for selection
  bool pieces_ = false;  // batches run in pieces of up to kSpan trials
  // The current piece or block of the step's trials: types, position draws,
  // and the sites they map to in their batch's chunk.
  std::array<ReactionIndex, kSpan> types_{};
  std::array<std::uint64_t, kSpan> draws_{};
  std::array<SiteIndex, kSpan> sites_{};
  obs::Phase step_phase_{phases_, "lpndca/step"};
  obs::Phase select_phase_{phases_, "lpndca/select"};
};

}  // namespace casurf
