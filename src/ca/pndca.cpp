#include "ca/pndca.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ca/fastpath.hpp"
#include "rng/distributions.hpp"

namespace casurf {

PndcaSimulator::PndcaSimulator(const ReactionModel& model, Configuration config,
                               std::vector<Partition> partitions, std::uint64_t seed,
                               ChunkPolicy policy, TimeMode time_mode, unsigned threads)
    : PartitionedSimulator(model, std::move(config), seed, "pndca",
                           policy == ChunkPolicy::kRateWeighted),
      partitions_(std::move(partitions)),
      policy_(policy),
      clock_(time_mode, config_.size(), model.total_rate()) {
  if (partitions_.empty()) {
    throw std::invalid_argument("PNDCA: at least one partition required");
  }
  if (threads == 0) throw std::invalid_argument("PNDCA: at least one thread required");
  require_draw_resolution(model_, "PNDCA");
  // Cache slot i == partition i, each with its block-rule verdict.
  for (const Partition& p : partitions_) add_slot(p);
  for (unsigned k = 0; k < threads; ++k) slices_.emplace_back(phases_, k + 1);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

double PndcaSimulator::enabled_rate_in_chunk(const Partition& p, ChunkId c) const {
  double rate = 0;
  for (const SiteIndex s : p.chunk(c)) {
    for (const ReactionType& rt : model_.reactions()) {
      if (rt.enabled(config_, s)) rate += rt.rate();
    }
  }
  return rate;
}

void PndcaSimulator::attach(const obs::Sinks& sinks) {
  PartitionedSimulator::attach(sinks);  // resolves every phase
  obs::MetricsRegistry* const registry = sinks.metrics;
  chunk_sites_ = registry ? &registry->histogram("pndca/chunk_sites") : nullptr;
  // Registered for the run report's readers; no phase of this sweep is a
  // recheck, so it reads zero.
  if (registry) (void)registry->timer("threads/recheck");
  if (sinks.tracer == nullptr) return;
  for (unsigned k = 0; k < slices_.size(); ++k) {
    sinks.tracer->set_thread_name(k + 1, "worker" + std::to_string(k));
  }
}

void PndcaSimulator::save_state(StateWriter& w) const {
  PartitionedSimulator::save_state(w);
  w.u64(sweep_);
  w.u64(partition_cursor_);
  w.vec_u64(schedule_);
}

void PndcaSimulator::restore_state(StateReader& r) {
  PartitionedSimulator::restore_state(r);
  sweep_ = r.u64();
  partition_cursor_ = static_cast<std::size_t>(r.u64());
  if (partition_cursor_ >= partitions_.size()) {
    throw StateFormatError("pndca partition cursor out of range");
  }
  schedule_ = r.vec_u64<ChunkId>(SIZE_MAX, "pndca schedule");
  for (const ChunkId c : schedule_) {
    if (c >= partitions_[partition_cursor_].num_chunks()) {
      throw StateFormatError("pndca schedule references chunk out of range");
    }
  }
}

std::vector<ChunkId> PndcaSimulator::plan_schedule() {
  const Partition& p = partitions_[partition_cursor_];
  const std::size_t m = p.num_chunks();
  std::vector<ChunkId> schedule(m);

  switch (policy_) {
    case ChunkPolicy::kInOrder:
      std::iota(schedule.begin(), schedule.end(), ChunkId{0});
      break;
    case ChunkPolicy::kRandomOrder: {
      std::iota(schedule.begin(), schedule.end(), ChunkId{0});
      for (std::size_t i = m; i > 1; --i) {
        const auto j = static_cast<std::size_t>(uniform_below(rng_, i));
        std::swap(schedule[i - 1], schedule[j]);
      }
      break;
    }
    case ChunkPolicy::kRandomWithReplacement:
      // |P| draws, each chunk with probability 1/|P| (paper's option 3).
      for (std::size_t i = 0; i < m; ++i) {
        schedule[i] = static_cast<ChunkId>(uniform_below(rng_, m));
      }
      break;
    case ChunkPolicy::kRateWeighted: {
      // |P| draws weighted by the rate of currently-enabled reactions in
      // each chunk (paper's option 4). The weights are the incremental
      // cache's cumulative chunk-rate table (no full-lattice rescan),
      // frozen at the start of the step, and sample_cumulative never
      // selects a zero-rate chunk. With nothing enabled anywhere the draw
      // degenerates to uniform.
      const std::vector<double>& rates = rate_cache_->chunk_cumulative(partition_cursor_);
      for (std::size_t i = 0; i < m; ++i) {
        schedule[i] = static_cast<ChunkId>(rates.back() > 0
                                               ? sample_cumulative(rates, uniform01(rng_))
                                               : uniform_below(rng_, m));
      }
      break;
    }
  }
  return schedule;
}

void PndcaSimulator::test_slice(std::uint64_t sweep, const SiteIndex* sites,
                                std::size_t begin, std::size_t end, Slice& slice) const {
  ReactionIndex types[kSpan];
  std::uint32_t hits[kSpan];
  Hit found[kSpan];
  for (std::size_t i0 = begin; i0 < end; i0 += kSpan) {
    const std::size_t m = std::min(kSpan, end - i0);
    const SiteIndex* at = sites + i0;
    sample_types(sweep, seed_hash_, at, m, model_.alias_table(), types);
    const std::size_t passed = test_span(at, types, m, hits);
    // Appended a span at a time: cheaper than a push_back per hit.
    for (std::size_t h = 0; h < passed; ++h) found[h] = {at[hits[h]], types[hits[h]]};
    slice.hits.insert(slice.hits.end(), found, found + passed);
  }
}

void PndcaSimulator::sweep_blocks(std::uint64_t sweep,
                                  const std::vector<SiteIndex>& sites) {
  // Every phase of one simulator shares its sinks.
  const bool timed = merge_phase_.on();
  const std::uint64_t start = timed ? obs::now_ns() : 0;
  for (Slice& slice : slices_) {
    slice.hits.clear();
    slice.busy_start = slice.busy_end = start;
  }

  // Phase 1: every slice is tested against the configuration as the sweep
  // starts, and nothing writes it meanwhile, so the 8 lanes may read whole
  // words on any thread.
  const auto test = [&](unsigned k, std::size_t begin, std::size_t end) {
    Slice& slice = slices_[k];
    if (timed) slice.busy_start = obs::now_ns();
    test_slice(sweep, sites.data(), begin, end, slice);
    if (timed) slice.busy_end = obs::now_ns();
  };
  if (pool_) {
    pool_->parallel_for(sites.size(), test);
  } else {
    test(0, 0, sites.size());
  }

  if (timed) {
    // The test phase has ended, so the caller records the slices' phases
    // on their rings: the test, and the wait as two records, the idle head
    // before the test and the idle tail after it, so that busy + wait is
    // the phase's wall (a slice left out of the split waits all of it).
    const std::uint64_t end = obs::now_ns();
    for (const Slice& slice : slices_) {
      slice.wait.record(start, slice.busy_start, time_, sweep);
      slice.busy.record(slice.busy_start, slice.busy_end, time_, sweep);
      slice.wait.record(slice.busy_end, end, time_, sweep);
    }
  }

  // Phase 2: the caller commits the hits in chunk order, the serial
  // sweep's order; under rate weighting each commit refreshes the cache.
  const obs::ScopedPhase commit_phase(merge_phase_, time_, sweep);
  for (const Slice& slice : slices_) {
    for (const Hit& h : slice.hits) commit(h.site, h.type, partition_cursor_);
  }
}

void PndcaSimulator::sweep_trials(std::uint64_t sweep,
                                  const std::vector<SiteIndex>& sites) {
  ReactionIndex types[kSpan];
  for (std::size_t i0 = 0; i0 < sites.size(); i0 += kSpan) {
    const std::size_t m = std::min(kSpan, sites.size() - i0);
    const SiteIndex* at = sites.data() + i0;
    sample_types(sweep, seed_hash_, at, m, model_.alias_table(), types);
    for (std::size_t i = 0; i < m; ++i) {
      run_trials(at + i, types + i, 1, partition_cursor_);
    }
  }
}

void PndcaSimulator::mc_step() {
  const obs::ScopedPhase step(step_phase_, time_, counters_.steps);
  partition_cursor_ = static_cast<std::size_t>(counters_.steps % partitions_.size());
  {
    const obs::ScopedPhase plan(plan_phase_, time_, counters_.steps);
    schedule_ = plan_schedule();
  }
  const Partition& p = partitions_[partition_cursor_];

  for (const ChunkId c : schedule_) {
    ++sweep_;
    if (chunk_sites_ != nullptr) chunk_sites_->record(p.chunk(c).size());
    {
      const obs::ScopedPhase phase(sweep_phase_, time_, sweep_);
      if (blocks(partition_cursor_)) {
        sweep_blocks(sweep_, p.chunk(c));
      } else {
        sweep_trials(sweep_, p.chunk(c));
      }
    }

    // Time advances once per sweep by its trials' summed time, drawn from
    // the schedule-level generator in a fixed order — identical under any
    // thread scheduling.
    const std::size_t n = p.chunk(c).size();
    clock_.advance(time_, n, rng_);
    counters_.trials += n;
  }
  ++counters_.steps;
}

}  // namespace casurf
