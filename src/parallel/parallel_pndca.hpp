#pragma once

#include "ca/pndca.hpp"
#include "parallel/thread_pool.hpp"

namespace casurf {

/// Threaded PNDCA: identical algorithm and — by construction — identical
/// trajectory to the sequential `PndcaSimulator` with the same seed, but
/// each chunk sweep is executed fork-join across a thread pool. This is
/// sound because the partition satisfies the paper's non-overlap rule
/// (same-chunk reactions touch disjoint sites) and because every
/// (sweep, site) trial draws from its own counter-RNG stream, so outcomes
/// do not depend on scheduling.
///
/// Shared-state discipline: each worker runs the serial span routine on its
/// slice of the chunk, testing its trials on the scalar lanes, which read
/// only bytes that no trial of the sweep writes (the non-overlap rule,
/// checked for every partition at construction). Threads write lattice
/// sites directly (disjoint by the same rule) but never the shared species
/// counts; each thread accumulates per-species deltas and per-type
/// execution tallies, merged after the join. Under kRateWeighted the
/// workers record each execution with the species it overwrote; after the
/// join the coordinator replays them into the rate cache in serial
/// execution order, which makes the same cache refreshes as the sequential
/// commit, call for call. Determinism is verified by the test suite
/// (parallel == sequential, any thread count).
class ParallelPndcaEngine final : public PndcaSimulator {
 public:
  ParallelPndcaEngine(const ReactionModel& model, Configuration config,
                      std::vector<Partition> partitions, std::uint64_t seed,
                      unsigned num_threads,
                      ChunkPolicy policy = ChunkPolicy::kRandomOrder,
                      TimeMode time_mode = TimeMode::kStochastic);

  [[nodiscard]] std::string name() const override { return "PNDCA(threads)"; }
  [[nodiscard]] unsigned num_threads() const { return pool_.size(); }

  /// Adds the threading probes on top of PNDCA's. Metrics: per-worker busy
  /// and barrier-wait timers (threads/busy/worker<k>, threads/wait/worker<k>
  /// — the run report derives load imbalance from the busy set), the
  /// post-join merge (threads/merge), and the rate-cache replay
  /// (threads/recheck). Tracer: worker k writes its threads/busy spans into
  /// ring k+1 (single-writer, race-free); the coordinator appends the
  /// matching threads/wait span after the join and records threads/merge +
  /// threads/recheck on ring 0.
  void attach(const obs::Sinks& sinks) override;

 protected:
  void execute_chunk(std::uint64_t sweep, const std::vector<SiteIndex>& sites) override;

 private:
  ThreadPool pool_;
  // Per-worker scratch. Under kRateWeighted the fired lists and their old
  // species are replayed into the enabled-rate cache at the sweep barrier in
  // worker order — like the species deltas, this keeps the trajectory
  // bit-identical across thread counts.
  std::vector<WorkerSink> workers_;
  // Threading probes; empty/null when no registry is attached. Workers
  // write only busy_scratch_ (their own slot); the coordinator folds the
  // scratch into the timers after the join.
  std::vector<obs::Timer*> busy_timers_;
  std::vector<obs::Timer*> wait_timers_;
  obs::Timer* merge_timer_ = nullptr;
  obs::Timer* recheck_timer_ = nullptr;
  std::vector<std::uint64_t> busy_scratch_;
  // Per-worker trace rings (empty when no tracer). Workers record their own
  // busy span and leave the busy-end timestamp in trace_busy_end_ (own slot
  // only); the coordinator turns it into the wait span after the join, so
  // ring writes stay single-writer.
  std::vector<obs::TraceRing*> worker_rings_;
  std::vector<std::uint64_t> trace_busy_end_;
};

}  // namespace casurf
