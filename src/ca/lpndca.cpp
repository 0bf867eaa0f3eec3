#include "ca/lpndca.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace casurf {

LPndcaSimulator::LPndcaSimulator(const ReactionModel& model, Configuration config,
                                 Partition partition, std::uint64_t seed,
                                 std::uint32_t trials_per_batch, TimeMode time_mode,
                                 ChunkWeighting weighting)
    : PartitionedSimulator(model, std::move(config), seed, "lpndca",
                           weighting == ChunkWeighting::kRateWeighted),
      partition_(std::move(partition)),
      trials_per_batch_(trials_per_batch),
      clock_(time_mode, config_.size(), model.total_rate()) {
  add_slot(partition_);
  if (trials_per_batch_ == 0) {
    throw std::invalid_argument("L-PNDCA: L must be at least 1");
  }
  chunk_cumulative_.resize(partition_.num_chunks());
  double acc = 0;
  for (ChunkId c = 0; c < partition_.num_chunks(); ++c) {
    acc += static_cast<double>(partition_.chunk(c).size());
    chunk_cumulative_[c] = acc;
  }
}

void LPndcaSimulator::attach(const obs::Sinks& sinks) {
  PartitionedSimulator::attach(sinks);
  obs::MetricsRegistry* const registry = sinks.metrics;
  step_timer_ = registry ? &registry->timer("lpndca/step") : nullptr;
  select_timer_ = registry ? &registry->timer("lpndca/select") : nullptr;
}

ChunkId LPndcaSimulator::select_chunk() {
  const obs::ScopedTimer span(select_timer_);
  const obs::ScopedSpan trace(trace_, "lpndca/select", time_, counters_.steps);
  if (rate_cache_) {
    // Rate-weighted draw over the live per-chunk enabled rates; unlike
    // PNDCA's per-step freeze, each batch sees the counts updated by the
    // previous one. Falls back to the size draw when nothing is enabled.
    const ChunkSampler& sampler = rate_cache_->sampler(0);
    if (sampler.total() > 0) return sampler.sample(uniform01(rng_));
  }
  // select P_i with probability |P_i| / N
  return static_cast<ChunkId>(sample_cumulative(chunk_cumulative_, uniform01(rng_)));
}

void LPndcaSimulator::mc_step() {
  const obs::ScopedTimer span(step_timer_);
  const obs::ScopedSpan trace(trace_, "lpndca/step", time_, counters_.steps);
  const std::uint64_t budget = config_.size();  // N trials per step
  std::uint64_t trials = 0;
  while (trials < budget) {
    const std::vector<SiteIndex>& sites = partition_.chunk(select_chunk());

    // select L, clipped to the remaining budget (1 <= L <= N - trials)
    const std::uint64_t batch =
        std::min<std::uint64_t>(trials_per_batch_, budget - trials);
    trials += batch;

    // L random sites within the chunk, with replacement — matching RSM's
    // site statistics in the degenerate-partition limits. Each trial draws
    // its site, then its type; no trial reads the clock, so the batch
    // advances time once, after its last trial.
    for (std::uint64_t i = 0; i < batch; ++i) {
      const SiteIndex s = sites[uniform_below(rng_, sites.size())];
      const ReactionIndex rt = model_.sample_type(rng_);
      if (trial_passes(s, rt)) commit(s, rt, 0);
    }
    clock_.advance(time_, batch, rng_);
    counters_.trials += batch;
  }
  ++counters_.steps;
}

}  // namespace casurf
