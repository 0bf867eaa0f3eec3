#include "parallel/parallel_pndca.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace casurf {

ParallelPndcaEngine::ParallelPndcaEngine(const ReactionModel& model,
                                         Configuration config,
                                         std::vector<Partition> partitions,
                                         std::uint64_t seed, unsigned num_threads,
                                         ChunkPolicy policy, TimeMode time_mode)
    : PndcaSimulator(model, std::move(config), std::move(partitions), seed, policy,
                     time_mode, /*threaded=*/true),
      pool_(num_threads) {
  workers_.assign(pool_.size(), {std::vector<std::int64_t>(model.species().size(), 0),
                                 std::vector<std::uint64_t>(model.num_reactions(), 0),
                                 {},
                                 {}});
}

void ParallelPndcaEngine::attach(const obs::Sinks& sinks) {
  PndcaSimulator::attach(sinks);  // resolves ring 0 for the coordinator
  obs::MetricsRegistry* const registry = sinks.metrics;
  busy_timers_.clear();
  wait_timers_.clear();
  worker_rings_.clear();
  for (unsigned tid = 0; tid < pool_.size(); ++tid) {
    const std::string worker = "worker" + std::to_string(tid);
    if (registry != nullptr) {
      busy_timers_.push_back(&registry->timer("threads/busy/" + worker));
      wait_timers_.push_back(&registry->timer("threads/wait/" + worker));
    }
    if (sinks.tracer != nullptr) {
      worker_rings_.push_back(&sinks.tracer->ring(tid + 1));
      sinks.tracer->set_thread_name(tid + 1, worker);
    }
  }
  busy_scratch_.assign(pool_.size(), 0);
  trace_busy_end_.assign(pool_.size(), 0);
  merge_timer_ = registry ? &registry->timer("threads/merge") : nullptr;
  recheck_timer_ = registry ? &registry->timer("threads/recheck") : nullptr;
}

void ParallelPndcaEngine::execute_chunk(std::uint64_t sweep,
                                        const std::vector<SiteIndex>& sites) {
  const bool timed = !busy_timers_.empty();
  const bool traced = !worker_rings_.empty();
  const bool clocked = timed || traced;
  for (WorkerSink& w : workers_) {
    std::ranges::fill(w.deltas, 0);
    std::ranges::fill(w.tally, 0);
    w.fired.clear();
    w.old_species.clear();
  }
  if (timed) std::ranges::fill(busy_scratch_, 0);
  if (traced) std::ranges::fill(trace_busy_end_, 0);
  const std::uint64_t wall_start = clocked ? obs::now_ns() : 0;

  // Each worker runs the serial span routine on its slice; work items are
  // independent (the non-overlap rule keeps same-chunk writes disjoint).
  pool_.parallel_for(sites.size(), [&](unsigned tid, std::size_t begin, std::size_t end) {
    const std::uint64_t busy_start = clocked ? obs::now_ns() : 0;
    run_span(sweep, sites.data() + begin, end - begin, &workers_[tid]);
    if (clocked) {
      const std::uint64_t busy_end = obs::now_ns();
      if (timed) busy_scratch_[tid] = busy_end - busy_start;
      if (traced) {
        // Each worker writes its own ring: single-writer, race-free.
        worker_rings_[tid]->span("threads/busy", busy_start, busy_end - busy_start,
                                 time_, sweep);
        trace_busy_end_[tid] = busy_end;
      }
    }
  });

  if (clocked) {
    // Busy is each worker's own span; wait is the rest of the fork-join
    // wall time — the time it spent idle at the implicit sweep barrier
    // (surplus workers of a small chunk count as all-wait). The report's
    // load-imbalance figure is max/mean over the busy set.
    const std::uint64_t wall_end = obs::now_ns();
    if (timed) {
      const std::uint64_t wall = wall_end - wall_start;
      for (unsigned tid = 0; tid < pool_.size(); ++tid) {
        busy_timers_[tid]->add_ns(busy_scratch_[tid]);
        wait_timers_[tid]->add_ns(wall - std::min(wall, busy_scratch_[tid]));
      }
    }
    if (traced) {
      // The join happened-before this point, so appending the wait span to
      // each worker's ring from the coordinator cannot race the worker.
      for (unsigned tid = 0; tid < pool_.size(); ++tid) {
        const std::uint64_t from =
            trace_busy_end_[tid] != 0 ? trace_busy_end_[tid] : wall_start;
        worker_rings_[tid]->span("threads/wait", from,
                                 wall_end - std::min(wall_end, from), time_, sweep);
      }
    }
  }

  // Deterministic merge: integer sums are order-independent.
  {
    const obs::ScopedTimer merge_span(merge_timer_);
    const obs::ScopedSpan merge_trace(trace_, "threads/merge", time_, sweep);
    for (const WorkerSink& w : workers_) {
      config_.apply_count_delta(w.deltas.data());
      for (ReactionIndex rt = 0; rt < model_.num_reactions(); ++rt) {
        counters_.executed += w.tally[rt];
        counters_.executed_per_type[rt] += w.tally[rt];
      }
    }
  }

  // The rate cache was untouched during the sweep; replay the fired lists
  // at the barrier with the species the workers captured. Worker order is chunk-site order, the serial execution order,
  // and each written site was written once this sweep, so every refresh
  // sees the planes and species the serial commit's refresh saw: the cache
  // and the recheck counters land exactly where the sequential simulator's
  // per-event updates put them.
  if (rate_cache_) {
    const obs::ScopedTimer recheck_span(recheck_timer_);
    const obs::ScopedSpan recheck_trace(trace_, "threads/recheck", time_, sweep);
    for (const WorkerSink& w : workers_) {
      const Species* old_species = w.old_species.data();
      for (const FiredReaction& f : w.fired) {
        const ReactionType& reaction = model_.reaction(f.type);
        rate_cache_->refresh_after_fire(config_, reaction, f.site, old_species,
                                        partition_cursor_);
        old_species += reaction.transforms().size();
      }
    }
  }
}

}  // namespace casurf
