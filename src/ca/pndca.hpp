#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ca/partitioned.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

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
/// The block rule: a chunk sweep's trials may all be tested against the
/// configuration as the sweep starts and then committed in site order when
/// no trial of a chunk writes a site that another trial of the chunk reads,
/// which is the read/write conflict rule (conflict_offsets(model,
/// ConflictPolicy::kReadWrite)); the paper's full-neighborhood rule implies
/// it. Each partition is checked once, at construction. A sweep under the
/// rule runs in two phases:
///   1. test: the chunk's sites are split into num_threads() contiguous
///      slices, and each slice is sampled (sample_types) and tested on the
///      8 lanes (enabled_trials), writing no byte of the configuration. With one
///      thread the caller tests its one slice itself and no pool exists;
///      otherwise a ThreadPool worker tests each slice.
///   2. commit: the caller commits the slices' hits in chunk order through
///      the base's serial commit.
/// That is the serial sweep's answer at every thread count: no commit
/// changes another trial's test, and two trials that write one site commit
/// in site order. A partition that fails the rule, such as
/// Partition::single_chunk, still runs exactly, on the caller at any thread
/// count: its spans hold one trial, tested and then committed before the
/// next.
///
/// Per-site randomness comes from a counter RNG keyed by (sweep, site), so
/// the trajectory is a pure function of (seed, chunk schedule), and the
/// thread count is a pure performance parameter: one checkpoint name,
/// "PNDCA", covers every count, and runs resume each other across counts.
///
/// Several partitions may be supplied; one is chosen per step ("choose a
/// partition P"), cycling — which also expresses the shifting blocks of a
/// classic BCA.
class PndcaSimulator : public PartitionedSimulator {
 public:
  /// `threads` test slices per sweep, at least 1; above 1 a ThreadPool of
  /// that many workers (at most ThreadPool::kMaxThreads) runs them.
  PndcaSimulator(const ReactionModel& model, Configuration config,
                 std::vector<Partition> partitions, std::uint64_t seed,
                 ChunkPolicy policy = ChunkPolicy::kRandomOrder,
                 TimeMode time_mode = TimeMode::kStochastic, unsigned threads = 1);

  void mc_step() override;
  [[nodiscard]] std::string name() const override { return "PNDCA"; }
  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(slices_.size());
  }

  /// Adds the chunk-size histogram to the base's probes, registers
  /// threads/recheck (it reads zero) and names worker k's ring k + 1.
  /// PNDCA's phases are pndca/{step,plan,sweep} and, at every thread count,
  /// the sweep's: slice k's test (threads/busy, timer
  /// threads/busy/worker<k>; the run report derives load imbalance from
  /// the busy set), the rest of the test phase's wall for that slice
  /// (threads/wait), both on ring k + 1, and the caller's commit phase
  /// (threads/merge) on ring 0.
  void attach(const obs::Sinks& sinks) override;

  [[nodiscard]] const Partition& current_partition() const {
    return partitions_[partition_cursor_];
  }
  [[nodiscard]] const Partition* spatial_partition() const override {
    return &partitions_.front();
  }
  [[nodiscard]] const std::vector<Partition>& partitions() const { return partitions_; }
  [[nodiscard]] ChunkPolicy policy() const { return policy_; }

  /// The chunk schedule executed by the most recent step (for tests).
  [[nodiscard]] const std::vector<ChunkId>& last_schedule() const { return schedule_; }

  /// Build the chunk schedule for the next step without executing it
  /// (exposed for reference sweeps in tests).
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
  // rng_ (the base's) drives schedule decisions and time, never site trials.
  std::vector<Partition> partitions_;
  ChunkPolicy policy_;
  TrialClock clock_;
  std::uint64_t sweep_ = 0;  // counts chunk sweeps; keys the per-site streams
  std::size_t partition_cursor_ = 0;
  std::vector<ChunkId> schedule_;
  obs::Phase step_phase_{phases_, "pndca/step"};
  obs::Phase plan_phase_{phases_, "pndca/plan"};
  obs::Phase sweep_phase_{phases_, "pndca/sweep"};
  obs::Histogram* chunk_sites_ = nullptr;     // pndca/chunk_sites

 private:
  /// A trial that passed its test: committed in the commit phase.
  struct Hit {
    SiteIndex site;
    ReactionIndex type;
  };

  /// One test slice's output and phases, reused every sweep. Aligned to a
  /// cache line: each slice is written by its own thread during the test
  /// phase. The hit list grows with the hits, not with the slice.
  struct alignas(64) Slice {
    Slice(obs::Phases& phases, unsigned ring)
        : busy(phases, "threads/busy", ring), wait(phases, "threads/wait", ring) {}
    std::vector<Hit> hits;  // in chunk order
    // When the slice's test began and ended this sweep (read only when its
    // phases are on); a slice left out of the split keeps the phase's start.
    std::uint64_t busy_start = 0, busy_end = 0;
    obs::Phase busy;
    obs::Phase wait;
  };

  /// A chunk sweep under the block rule: the test phase over num_threads()
  /// slices, then the caller's commits in chunk order.
  void sweep_blocks(std::uint64_t sweep, const std::vector<SiteIndex>& sites);

  /// The test phase of sites[begin..end): samples and tests them a span at
  /// a time and appends their hits, in site-list order, to `slice`. Writes
  /// nothing but the slice and, when a spatial map is attached, the slice's
  /// sites' attempt and fire tallies.
  void test_slice(std::uint64_t sweep, const SiteIndex* sites, std::size_t begin,
                  std::size_t end, Slice& slice) const;

  /// A chunk sweep that fails the block rule: one trial at a time, each
  /// tested and committed before the next.
  void sweep_trials(std::uint64_t sweep, const std::vector<SiteIndex>& sites);

  obs::Phase merge_phase_{phases_, "threads/merge"};
  // One per thread; a deque, because phases_ holds each slice's phases by
  // address.
  std::deque<Slice> slices_;
  std::unique_ptr<ThreadPool> pool_;  // runs the slices; null at one thread
};

}  // namespace casurf
