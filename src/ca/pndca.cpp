#include "ca/pndca.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "ca/fastpath.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace casurf {

PndcaSimulator::PndcaSimulator(const ReactionModel& model, Configuration config,
                               std::vector<Partition> partitions, std::uint64_t seed,
                               ChunkPolicy policy, TimeMode time_mode)
    : PndcaSimulator(model, std::move(config), std::move(partitions), seed, policy,
                     time_mode, /*threaded=*/false) {}

PndcaSimulator::PndcaSimulator(const ReactionModel& model, Configuration config,
                               std::vector<Partition> partitions, std::uint64_t seed,
                               ChunkPolicy policy, TimeMode time_mode, bool threaded)
    : PartitionedSimulator(model, std::move(config), seed, "pndca",
                           policy == ChunkPolicy::kRateWeighted),
      partitions_(std::move(partitions)),
      policy_(policy),
      clock_(time_mode, config_.size(), model.total_rate()) {
  if (partitions_.empty()) {
    throw std::invalid_argument("PNDCA: at least one partition required");
  }
  require_draw_resolution(model_, "PNDCA");
  // Cache slot i == partition i, each with its block-rule verdict. The
  // full-neighborhood rule implies the block rule, so a threaded engine,
  // which must have the former, never checks the latter.
  for (const Partition& p : partitions_) {
    add_slot(p, threaded ? BlockCheck::kThreaded : BlockCheck::kReadWrite);
  }
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
  PartitionedSimulator::attach(sinks);
  obs::MetricsRegistry* const registry = sinks.metrics;
  step_timer_ = registry ? &registry->timer("pndca/step") : nullptr;
  plan_timer_ = registry ? &registry->timer("pndca/plan") : nullptr;
  sweep_timer_ = registry ? &registry->timer("pndca/sweep") : nullptr;
  chunk_sites_ = registry ? &registry->histogram("pndca/chunk_sites") : nullptr;
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
      // each chunk (paper's option 4). The weights come from the
      // incremental cache — no full-lattice rescan — and are frozen at the
      // start of the step; each draw costs O(log m) through the Fenwick
      // sampler, which never selects a zero-weight chunk. With nothing
      // enabled anywhere the draw degenerates to uniform.
      const ChunkSampler& sampler = rate_cache_->sampler(partition_cursor_);
      for (std::size_t i = 0; i < m; ++i) {
        schedule[i] = sampler.total() > 0
                          ? sampler.sample(uniform01(rng_))
                          : static_cast<ChunkId>(uniform_below(rng_, m));
      }
      break;
    }
  }
  return schedule;
}

void PndcaSimulator::run_span(std::uint64_t sweep, const SiteIndex* sites,
                              std::size_t n, WorkerSink* worker) {
  // Spans are sampled and tested in stack-sized pieces; any split of a
  // chunk into spans gives the same trajectory.
  ReactionIndex types[kSpan] = {};
  std::uint32_t hits[kSpan] = {};
  const std::size_t span = blocks(partition_cursor_) ? kSpan : 1;
  for (std::size_t i0 = 0; i0 < n; i0 += span) {
    const std::size_t m = std::min(span, n - i0);
    const SiteIndex* at = sites + i0;
    sample_types(sweep, seed_hash_, at, m, model_.alias_table(), types);
    if (worker == nullptr) {
      run_trials(at, types, m, partition_cursor_);
      continue;
    }
    // Workers take the scalar lanes, which read single bytes: the 8 lanes
    // read whole 4-byte words, and near a slice boundary such a word can
    // hold a byte another worker writes during this sweep. The byte a lane
    // uses is never written in the sweep, but the word read would still be
    // a data race. An engine that puts a barrier between every worker's
    // pre-test and the commits can move its workers to the 8 lanes.
    const std::size_t passed = enabled_trials_scalar(probes_, config_, at, types, m, hits);
    if (spatial_.map() != nullptr) {
      for (std::size_t i = 0; i < m; ++i) spatial_.attempt(at[i]);
      for (std::size_t h = 0; h < passed; ++h) spatial_.fire(at[hits[h]]);
    }
    for (std::size_t h = 0; h < passed; ++h) {
      // The engine's deferral of the commit. The old species are read before
      // the write; no other trial of the sweep writes these sites, and the
      // per-site recording is race-free for the same reason, as is
      // execute_raw.
      const SiteIndex s = at[hits[h]];
      const ReactionIndex rt = types[hits[h]];
      const ReactionType& reaction = model_.reaction(rt);
      if (rate_cache_) {
        worker->fired.push_back({s, rt});
        const std::size_t where = worker->old_species.size();
        worker->old_species.resize(where + reaction.transforms().size());
        Rechecker::capture_old_species(config_, reaction, s,
                                       worker->old_species.data() + where);
      }
      reaction.execute_raw(config_, s, worker->deltas.data());
      ++worker->tally[rt];
    }
  }
}

void PndcaSimulator::execute_chunk(std::uint64_t sweep,
                                   const std::vector<SiteIndex>& sites) {
  run_span(sweep, sites.data(), sites.size(), nullptr);
}

void PndcaSimulator::mc_step() {
  const obs::ScopedTimer step_span(step_timer_);
  const obs::ScopedSpan step_trace(trace_, "pndca/step", time_, counters_.steps);
  partition_cursor_ = static_cast<std::size_t>(counters_.steps % partitions_.size());
  {
    const obs::ScopedTimer plan_span(plan_timer_);
    const obs::ScopedSpan plan_trace(trace_, "pndca/plan", time_, counters_.steps);
    schedule_ = plan_schedule();
  }
  const Partition& p = partitions_[partition_cursor_];

  for (const ChunkId c : schedule_) {
    ++sweep_;
    if (chunk_sites_ != nullptr) chunk_sites_->record(p.chunk(c).size());
    {
      const obs::ScopedTimer sweep_span(sweep_timer_);
      const obs::ScopedSpan sweep_trace(trace_, "pndca/sweep", time_, sweep_);
      execute_chunk(sweep_, p.chunk(c));
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
