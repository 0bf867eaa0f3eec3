#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ca/fastpath.hpp"
#include "ca/rate_cache.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "rng/counter_rng.hpp"
#include "rng/xoshiro.hpp"

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
/// Per-site randomness comes from a counter RNG keyed by (sweep, site), so
/// the trajectory is a pure function of (seed, chunk schedule) and the
/// threaded engine (`ParallelPndcaEngine`) reproduces this sequential
/// implementation bit for bit.
///
/// Several partitions may be supplied; one is chosen per step ("choose a
/// partition P"), cycling — which also expresses the shifting blocks of a
/// classic BCA.
class PndcaSimulator : public Simulator {
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

  /// The incremental enabled-rate cache serving the kRateWeighted policy
  /// (slot i == partition i), or nullptr under the other policies. Exposed
  /// for the cache-invariant tests.
  [[nodiscard]] const EnabledRateCache* rate_cache() const { return rate_cache_.get(); }

  /// Brute-force O(|chunk| |T|) enabled rate of one chunk — the reference
  /// the cache is checked against, and the "before" cost model in the
  /// throughput benchmarks. Never called on the simulation hot path.
  [[nodiscard]] double enabled_rate_in_chunk(const Partition& p, ChunkId c) const;

  /// Checkpointing. The enabled-rate cache is a pure function of the
  /// configuration, so it is not serialized — restore rebuilds it from the
  /// restored lattice state; the per-site counter-RNG streams are keyed by
  /// (seed, sweep), so saving the sweep counter is what resumes them.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Brute-force verifies the enabled-rate cache (kRateWeighted only);
  /// repair rebuilds it from the configuration.
  void audit_derived_state(AuditReport& report, bool repair) override;

  /// Test-only mutable cache access for injecting corruption in the audit
  /// suite; nullptr under the structural policies.
  [[nodiscard]] EnabledRateCache* mutable_rate_cache_for_test() {
    return rate_cache_.get();
  }

  /// Batched bitplane trial path: whole 64-site windows of a chunk are
  /// evaluated at once (vectorized CounterRng lanes, per-type enabled
  /// masks). Gated on every partition satisfying the non-overlap rule —
  /// the property that makes all in-chunk trials independent, hence the
  /// pre-sweep window evaluation exactly equal to the sequential scalar
  /// loop. Falls back to the scalar path (returns false) when the gate
  /// fails or the build disabled the fast path.
  bool set_fast_path(bool on) override;
  [[nodiscard]] bool fast_path_active() const override { return fast_ != nullptr; }

  /// Test hook: the bitplanes backing the fast path (nullptr when scalar).
  /// Mutable so the audit suite can corrupt a bit and watch it get caught.
  [[nodiscard]] SpeciesBitplanes* fast_planes_for_test() {
    return fast_ ? &fast_->planes : nullptr;
  }

 protected:
  static constexpr std::int32_t kNoReaction = -1;

  /// One NDCA trial at site s during global sweep `sweep`, using the site's
  /// private random stream. When `deltas` is null, writes go through the
  /// count-maintaining path and the execution is recorded in the counters;
  /// when non-null (threaded engine), writes bypass the shared species
  /// counts and per-species changes accumulate into `deltas` instead, and
  /// the caller is responsible for counter bookkeeping. Returns the
  /// executed reaction type, or kNoReaction.
  std::int32_t trial_at(std::uint64_t sweep, SiteIndex s, std::int64_t* deltas = nullptr);

  /// Run all trials of one chunk sweep. The base class loops sequentially
  /// (or window-batched when the fast path is engaged); the threaded engine
  /// overrides this with a fork-join over the sites. `chunk` identifies the
  /// chunk within the current partition, keying the cached window lists.
  virtual void execute_chunk(std::uint64_t sweep, ChunkId chunk,
                             const std::vector<SiteIndex>& sites);

  /// Whether the rate cache is live (kRateWeighted policy).
  [[nodiscard]] bool rate_cache_active() const { return rate_cache_ != nullptr; }

  /// Fold one executed reaction (type `reaction`, anchored at `s`) into the
  /// rate cache: rechecks the anchors around every written site. The serial
  /// path calls this right after each execution; the threaded engine
  /// replays the sweep's executions through it after the join — the counts
  /// agree either way because rechecks are idempotent against the final
  /// configuration.
  void refresh_rate_cache(const ReactionType& reaction, SiteIndex s);

  /// Shared state of the batched path: the bitplane mirror of the
  /// configuration, the compiled per-type probe plans, the per-site
  /// enabled-type bitset the kernel tests, and scratch for the kernel's
  /// outputs. The threaded engine shares planes/probes/bitset read-only
  /// across workers during a sweep and keeps per-worker hit scratch.
  struct FastState {
    FastState(const Configuration& config, std::uint64_t seed,
              const ReactionModel& model)
        : planes(config),
          probes(model, config.lattice().width(), config.lattice().height()),
          seed_hash(CounterRng::seed_hash(seed)) {
      enabled.rebuild(planes, probes);
    }
    SpeciesBitplanes planes;
    ProbePlans probes;
    std::uint64_t seed_hash;
    EnabledTypeSet enabled;  // per-site type bitset: the trial-loop lookup
    std::vector<TrialHit> hits;     // batch_trials output (serial sweeps)
    std::vector<Species> old_pre;   // pre-fire species, for recheck pruning
  };

  /// Post-fire bookkeeping of the batched path, replacing the scalar
  /// refresh_rate_cache: resyncs the planes for the written sites, then
  /// rechecks the affected (type, anchor) pairs once via the probe plans,
  /// folding each outcome into the enabled-type bitset and (under
  /// kRateWeighted) the rate cache. Mirrors the scalar path's metrics
  /// counters. The threaded engine replays fired lists through this at the
  /// barrier — all resyncs first, then all rechecks, so every probe reads
  /// fully synced planes (`resync` toggles the first phase).
  ///
  /// `old_species`, when given, holds each written site's species from
  /// before the fire (indexed like the reaction's transform list); rechecks
  /// that can depend on neither the old nor the new species are skipped.
  /// Pass nullptr when the pre-fire state is gone (barrier replay) — every
  /// candidate is visited, converging to the same state.
  void fast_after_fire(const ReactionType& reaction, SiteIndex s, bool resync,
                       const Species* old_species = nullptr);

  std::unique_ptr<FastState> fast_;
  std::vector<Partition> partitions_;
  Xoshiro256 rng_;  // drives schedule decisions only, never site trials
  ChunkPolicy policy_;
  TimeMode time_mode_;
  std::uint64_t seed_;
  double rate_nk_;
  std::uint64_t sweep_ = 0;  // counts chunk sweeps; keys the per-site streams
  std::size_t partition_cursor_ = 0;
  std::vector<ChunkId> schedule_;
  std::unique_ptr<EnabledRateCache> rate_cache_;  // kRateWeighted only
  obs::Timer* step_timer_ = nullptr;          // pndca/step
  obs::Timer* plan_timer_ = nullptr;          // pndca/plan
  obs::Timer* sweep_timer_ = nullptr;         // pndca/sweep
  obs::Counter* rate_rechecks_ = nullptr;     // pndca/rate_rechecks
  obs::Counter* boundary_rechecks_ = nullptr; // pndca/boundary_rechecks
  obs::Histogram* chunk_sites_ = nullptr;     // pndca/chunk_sites
};

}  // namespace casurf
