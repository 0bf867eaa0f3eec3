#include "parallel/parallel_pndca.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/trace.hpp"
#include "partition/conflict.hpp"

namespace casurf {

ParallelPndcaEngine::ParallelPndcaEngine(const ReactionModel& model,
                                         Configuration config,
                                         std::vector<Partition> partitions,
                                         std::uint64_t seed, unsigned num_threads,
                                         ChunkPolicy policy, TimeMode time_mode)
    : PndcaSimulator(model, std::move(config), std::move(partitions), seed, policy,
                     time_mode),
      pool_(num_threads) {
  // Thread safety rests entirely on the non-overlap rule; refuse partitions
  // that violate it rather than silently racing.
  const std::vector<Vec2> offsets = conflict_offsets(model);
  for (const Partition& p : this->partitions()) {
    if (!verify_partition(p, offsets)) {
      throw std::invalid_argument(
          "ParallelPndcaEngine: partition violates the non-overlap rule for "
          "this model; parallel chunk execution would race");
    }
  }
  deltas_.assign(pool_.size(), std::vector<std::int64_t>(model.species().size(), 0));
  tallies_.assign(pool_.size(), std::vector<std::uint64_t>(model.num_reactions(), 0));
  fired_.assign(pool_.size(), {});
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

bool ParallelPndcaEngine::set_fast_path(bool on) {
  const bool engaged = PndcaSimulator::set_fast_path(on);
  fast_hits_.clear();
  if (engaged) fast_hits_.resize(pool_.size());
  return engaged;
}

void ParallelPndcaEngine::execute_chunk(std::uint64_t sweep, ChunkId chunk,
                                        const std::vector<SiteIndex>& sites) {
  (void)chunk;
  const bool fast = fast_path_active();
  // Fired executions are replayed at the barrier by the rate cache AND by
  // the bitplane resync, so either consumer turns the tracking on.
  const bool track_fired = rate_cache_active() || fast;
  const bool timed = !busy_timers_.empty();
  const bool traced = !worker_rings_.empty();
  const bool clocked = timed || traced;
  for (auto& d : deltas_) std::ranges::fill(d, 0);
  for (auto& t : tallies_) std::ranges::fill(t, 0);
  if (track_fired) {
    for (auto& f : fired_) f.clear();
  }
  if (timed) std::ranges::fill(busy_scratch_, 0);
  if (traced) std::ranges::fill(trace_busy_end_, 0);
  const std::uint64_t wall_start = clocked ? obs::now_ns() : 0;

  // Both modes fork over the site list; in fast mode each worker runs the
  // batched trial kernel on its slice. Work items are independent either
  // way (the non-overlap rule keeps same-chunk writes disjoint).
  pool_.parallel_for(sites.size(), [&](unsigned tid, std::size_t begin, std::size_t end) {
    const std::uint64_t busy_start = clocked ? obs::now_ns() : 0;
    std::int64_t* deltas = deltas_[tid].data();
    std::uint64_t* tally = tallies_[tid].data();
    if (fast) {
      // Workers read the frozen pre-sweep bitset; the non-overlap rule
      // keeps it exact for every anchor of this sweep, and the coordinator
      // replays the fired lists into it at the barrier.
      std::vector<TrialHit>& hits = fast_hits_[tid];
      hits.resize(end - begin);
      const std::size_t cnt =
          batch_trials(sweep, fast_->seed_hash, sites.data() + begin,
                       end - begin, model_.alias_table(), fast_->enabled,
                       hits.data());
      if (spatial_.map() != nullptr) {
        for (std::size_t i = begin; i < end; ++i) spatial_.attempt(sites[i]);
      }
      for (std::size_t k = 0; k < cnt; ++k) {
        const SiteIndex s = sites[begin + hits[k].index];
        const ReactionIndex rt = hits[k].type;
        spatial_.fire(s);
        model_.reaction(rt).execute_raw(config_, s, deltas);
        ++tally[rt];
        fired_[tid].push_back({s, rt});
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const std::int32_t fired = trial_at(sweep, sites[i], deltas);
        if (fired != kNoReaction) {
          ++tally[fired];
          if (track_fired) {
            fired_[tid].push_back({sites[i], static_cast<ReactionIndex>(fired)});
          }
        }
      }
    }
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
    for (unsigned tid = 0; tid < pool_.size(); ++tid) {
      config_.apply_count_delta(deltas_[tid].data());
      for (ReactionIndex rt = 0; rt < model_.num_reactions(); ++rt) {
        const std::uint64_t n = tallies_[tid][rt];
        counters_.executed += n;
        counters_.executed_per_type[rt] += n;
      }
    }
  }

  // The bitplanes and the enabled-type bitset are frozen during the sweep
  // (workers only read them); replay the fired lists at the barrier. All
  // plane resyncs land first so that every probe recheck afterwards reads a
  // fully synced mirror of the post-sweep configuration; the rechecks are
  // idempotent functions of that configuration, so the bitset, the rate
  // cache, and the recheck counters land exactly where the sequential
  // simulator's per-event updates put them.
  if (fast) {
    const obs::ScopedTimer recheck_span(recheck_timer_);
    const obs::ScopedSpan recheck_trace(trace_, "threads/recheck", time_, sweep);
    for (unsigned tid = 0; tid < pool_.size(); ++tid) {
      for (const FiredReaction& f : fired_[tid]) {
        resync_written(fast_->planes, config_, model_.reaction(f.type), f.site);
      }
    }
    for (unsigned tid = 0; tid < pool_.size(); ++tid) {
      for (const FiredReaction& f : fired_[tid]) {
        fast_after_fire(model_.reaction(f.type), f.site, /*resync=*/false);
      }
    }
  } else if (rate_cache_active()) {
    // Scalar threaded mode: only the enabled-rate cache needs the replay.
    const obs::ScopedTimer recheck_span(recheck_timer_);
    const obs::ScopedSpan recheck_trace(trace_, "threads/recheck", time_, sweep);
    for (unsigned tid = 0; tid < pool_.size(); ++tid) {
      for (const FiredReaction& f : fired_[tid]) {
        refresh_rate_cache(model_.reaction(f.type), f.site);
      }
    }
  }
}

}  // namespace casurf
