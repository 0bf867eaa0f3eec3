#include "ca/lpndca.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace casurf {

LPndcaSimulator::LPndcaSimulator(const ReactionModel& model, Configuration config,
                                 Partition partition, std::uint64_t seed,
                                 std::uint32_t trials_per_batch, TimeMode time_mode,
                                 ChunkWeighting weighting)
    : Simulator(model, std::move(config)),
      partition_(std::move(partition)),
      rng_(seed),
      trials_per_batch_(trials_per_batch),
      time_mode_(time_mode),
      weighting_(weighting),
      rate_nk_(static_cast<double>(config_.size()) * model.total_rate()) {
  if (!(partition_.lattice() == config_.lattice())) {
    throw std::invalid_argument("L-PNDCA: partition lattice mismatch");
  }
  if (trials_per_batch_ == 0) {
    throw std::invalid_argument("L-PNDCA: L must be at least 1");
  }
  chunk_cumulative_.resize(partition_.num_chunks());
  double acc = 0;
  for (ChunkId c = 0; c < partition_.num_chunks(); ++c) {
    acc += static_cast<double>(partition_.chunk(c).size());
    chunk_cumulative_[c] = acc;
  }
  if (weighting_ == ChunkWeighting::kRateWeighted) {
    rate_cache_ = std::make_unique<EnabledRateCache>(model_, config_);
    rate_cache_->add_partition(partition_);
  }
}

void LPndcaSimulator::trial_at(SiteIndex s) {
  const ReactionIndex rt = model_.sample_type(rng_);
  const ReactionType& reaction = model_.reaction(rt);
  spatial_.attempt(s);
  if (reaction.enabled(config_, s)) {
    if (rate_cache_) {
      rate_cache_->execute(config_, reaction, s, 0);
    } else {
      reaction.execute(config_, s);
    }
    record_execution(rt);
    spatial_.fire(s);
  }
  time_ += time_mode_ == TimeMode::kStochastic ? exponential(rng_, rate_nk_)
                                               : 1.0 / rate_nk_;
  ++counters_.trials;
}

void LPndcaSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("lpndca");
  rng_.save(w);
}

void LPndcaSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("lpndca");
  rng_.restore(r);
  if (rate_cache_) rate_cache_->rebuild(config_);
}

void LPndcaSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  if (rate_cache_) rate_cache_->audit(config_, report, repair);
}

void LPndcaSimulator::attach(const obs::Sinks& sinks) {
  Simulator::attach(sinks);
  obs::MetricsRegistry* const registry = sinks.metrics;
  step_timer_ = registry ? &registry->timer("lpndca/step") : nullptr;
  select_timer_ = registry ? &registry->timer("lpndca/select") : nullptr;
  EnabledRateCache::attach_counters(rate_cache_.get(), registry, "lpndca");
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
    // site statistics in the degenerate-partition limits.
    for (std::uint64_t i = 0; i < batch; ++i) {
      trial_at(sites[uniform_below(rng_, sites.size())]);
    }
  }
  ++counters_.steps;
}

}  // namespace casurf
