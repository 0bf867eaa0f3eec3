#pragma once

#include <cstdint>
#include <vector>

#include "ca/partitioned.hpp"
#include "obs/metrics.hpp"

namespace casurf {

/// The paper's four ways of selecting chunks within a PNDCA step
/// (section 5, "Opportunities for improvements").
enum class ChunkPolicy {
  kInOrder,                ///< 1. all chunks, fixed order
  kRandomOrder,            ///< 2. all chunks, fresh random order per step
  kRandomWithReplacement,  ///< 3. |P| draws, each chunk with prob 1/|P|
  kRateWeighted,           ///< 4. |P| draws weighted by enabled rate per chunk
};

/// Partitioned NDCA (paper section 5): per step, chunks are selected
/// according to the policy and every site of a selected chunk performs one
/// NDCA trial. Because same-chunk sites never conflict (the partition
/// satisfies the non-overlap rule), all trials within a chunk are
/// independent — the source of parallelism.
///
/// The block rule: a chunk sweep samples a span of trials at a time, then
/// tests and commits it through the base's span routine
/// (PartitionedSimulator::run_trials): every trial against the
/// configuration as the span starts, then the passes in site order. That is
/// the serial sweep's answer when no trial of a chunk writes a site that
/// another trial of the chunk reads, which is the read/write conflict rule
/// (conflict_offsets(model, ConflictPolicy::kReadWrite)); the paper's
/// full-neighborhood rule implies it. Each partition is checked once, at
/// construction. A partition that fails the rule, such as
/// Partition::single_chunk, still runs exactly: its spans hold one trial,
/// tested and then committed before the next.
///
/// Per-site randomness comes from a counter RNG keyed by (sweep, site), so
/// the trajectory is a pure function of (seed, chunk schedule) and the
/// threaded engine (`ParallelPndcaEngine`) reproduces this sequential
/// implementation bit for bit.
///
/// Several partitions may be supplied; one is chosen per step ("choose a
/// partition P"), cycling — which also expresses the shifting blocks of a
/// classic BCA.
class PndcaSimulator : public PartitionedSimulator {
 public:
  PndcaSimulator(const ReactionModel& model, Configuration config,
                 std::vector<Partition> partitions, std::uint64_t seed,
                 ChunkPolicy policy = ChunkPolicy::kRandomOrder,
                 TimeMode time_mode = TimeMode::kStochastic);

  void mc_step() override;
  [[nodiscard]] std::string name() const override { return "PNDCA"; }

  void attach(const obs::Sinks& sinks) override;

  [[nodiscard]] const Partition& current_partition() const {
    return partitions_[partition_cursor_];
  }
  [[nodiscard]] const Partition* spatial_partition() const override {
    return &partitions_.front();
  }
  [[nodiscard]] const std::vector<Partition>& partitions() const { return partitions_; }
  [[nodiscard]] ChunkPolicy policy() const { return policy_; }

  /// The chunk schedule executed by the most recent step (for tests and for
  /// replay by the parallel engine / simulated machine).
  [[nodiscard]] const std::vector<ChunkId>& last_schedule() const { return schedule_; }

  /// Build the chunk schedule for the next step without executing it
  /// (exposed for the simulated parallel machine).
  std::vector<ChunkId> plan_schedule();

  /// Brute-force O(|chunk| |T|) enabled rate of one chunk — the reference
  /// the cache is checked against, and the "before" cost model in the
  /// throughput benchmarks. Never called on the simulation hot path.
  [[nodiscard]] double enabled_rate_in_chunk(const Partition& p, ChunkId c) const;

  /// Checkpointing: the base's section, then the sweep counter, partition
  /// cursor and schedule. The per-site counter-RNG streams are keyed by
  /// (seed, sweep), so saving the sweep counter is what resumes them.
  /// Partition i is cache slot i, so the base's blocks(i) is partition i's
  /// block-rule verdict.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

 protected:
  /// With `threaded`, every partition must pass the paper's
  /// full-neighborhood rule, or the constructor throws: the threaded
  /// engine's workers share the lattice. Otherwise partitions that fail the
  /// block rule run one-trial spans.
  PndcaSimulator(const ReactionModel& model, Configuration config,
                 std::vector<Partition> partitions, std::uint64_t seed,
                 ChunkPolicy policy, TimeMode time_mode, bool threaded);

  /// An execution of a threaded sweep, replayed into the rate cache at the
  /// sweep barrier.
  struct FiredReaction {
    SiteIndex site;
    ReactionIndex type;
  };

  /// A pool worker's accumulators, reused every sweep. Writes bypass the
  /// shared species counts: per-species changes go to `deltas` and per-type
  /// executions to `tally`, which the engine merges after the join. Under
  /// kRateWeighted the executions are also listed in `fired`, and the
  /// species each one overwrote in `old_species` (one entry per transform,
  /// as Rechecker::capture_old_species lays them out), so the barrier
  /// replay makes the serial commit's cache refreshes call for call.
  struct WorkerSink {
    std::vector<std::int64_t> deltas;
    std::vector<std::uint64_t> tally;
    std::vector<FiredReaction> fired;
    std::vector<Species> old_species;
  };

  /// The trials of sites[0..n) in chunk sweep `sweep`, a span at a time:
  /// sample_types draws the span's reaction types, then with `worker` null
  /// (the serial sweep) the base's run_trials tests and commits them, and
  /// otherwise the scalar lanes of enabled_trials test them and the passes
  /// go to the worker's accumulators. Spans hold one trial when the current
  /// partition fails the block rule. Each (sweep, site) pair owns a private
  /// random stream, and under the block rule no commit of a chunk changes
  /// another trial's test, so the outcome does not depend on how a chunk is
  /// split into spans — which is what lets the threaded engine replay this
  /// exact trajectory. A spatial map records an attempt for every trial and
  /// a fire for every hit.
  void run_span(std::uint64_t sweep, const SiteIndex* sites, std::size_t n,
                WorkerSink* worker);

  /// Run all trials of one chunk sweep. The base class runs one span over
  /// the whole chunk; the threaded engine overrides this with a fork-join
  /// over slices.
  virtual void execute_chunk(std::uint64_t sweep, const std::vector<SiteIndex>& sites);

  // rng_ (the base's) drives schedule decisions and time, never site trials.
  std::vector<Partition> partitions_;
  ChunkPolicy policy_;
  TrialClock clock_;
  std::uint64_t sweep_ = 0;  // counts chunk sweeps; keys the per-site streams
  std::size_t partition_cursor_ = 0;
  std::vector<ChunkId> schedule_;
  obs::Timer* step_timer_ = nullptr;          // pndca/step
  obs::Timer* plan_timer_ = nullptr;          // pndca/plan
  obs::Timer* sweep_timer_ = nullptr;         // pndca/sweep
  obs::Histogram* chunk_sites_ = nullptr;     // pndca/chunk_sites
};

}  // namespace casurf
