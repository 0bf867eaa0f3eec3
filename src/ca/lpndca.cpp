#include "ca/lpndca.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ca/fastpath.hpp"
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
  // Only batches that can fill a lane block run in pieces.
  pieces_ = trials_per_batch_ >= kLanes && blocks(0);
  require_draw_resolution(model_, "L-PNDCA");
  chunk_cumulative_.resize(partition_.num_chunks());
  double acc = 0;
  for (ChunkId c = 0; c < partition_.num_chunks(); ++c) {
    acc += static_cast<double>(partition_.chunk(c).size());
    chunk_cumulative_[c] = acc;
  }
}

void LPndcaSimulator::save_state(StateWriter& w) const {
  PartitionedSimulator::save_state(w);
  w.u64(trials_per_batch_);
}

void LPndcaSimulator::restore_state(StateReader& r) {
  PartitionedSimulator::restore_state(r);
  const std::uint64_t l = r.u64();
  if (l != trials_per_batch_) {
    throw StateFormatError("lpndca: the checkpoint was written with L = " +
                           std::to_string(l) + ", this simulator has L = " +
                           std::to_string(trials_per_batch_));
  }
}

ChunkId LPndcaSimulator::select_chunk() {
  const obs::ScopedPhase phase(select_phase_, time_, counters_.steps);
  if (rate_cache_) {
    // Rate-weighted draw over the live per-chunk enabled rates; unlike
    // PNDCA's per-step freeze, each batch sees the counts updated by the
    // previous one. Falls back to the size draw when nothing is enabled.
    const std::vector<double>& rates = rate_cache_->chunk_cumulative(0);
    if (rates.back() > 0) {
      return static_cast<ChunkId>(sample_cumulative(rates, uniform01(rng_)));
    }
  }
  // select P_i with probability |P_i| / N
  return static_cast<ChunkId>(sample_cumulative(chunk_cumulative_, uniform01(rng_)));
}

void LPndcaSimulator::run_pieces(std::uint64_t t, std::uint64_t end,
                                 const std::vector<SiteIndex>& chunk) {
  for (; t < end; t += kSpan) {
    const auto m = static_cast<std::size_t>(std::min<std::uint64_t>(kSpan, end - t));
    sample_trials(counters_.steps, seed_hash_, t, m, model_.alias_table(), types_.data(),
                  draws_.data());
    chunk_sites(draws_.data(), m, chunk.data(), static_cast<std::uint32_t>(chunk.size()),
                sites_.data());
    run_trials(sites_.data(), types_.data(), m, 0);
  }
}

void LPndcaSimulator::mc_step() {
  const obs::ScopedPhase phase(step_phase_, time_, counters_.steps);
  const std::uint64_t budget = config_.size();  // N trials per step
  std::uint64_t block = budget;  // first trial of the drawn block; none yet
  for (std::uint64_t t = 0; t < budget;) {
    const std::vector<SiteIndex>& chunk = partition_.chunk(select_chunk());

    // select L, clipped to the remaining budget (1 <= L <= N - trials)
    const std::uint64_t batch = std::min<std::uint64_t>(trials_per_batch_, budget - t);
    const std::uint64_t end = t + batch;

    // L random sites within the chunk, with replacement — matching RSM's
    // site statistics in the degenerate-partition limits. No trial reads
    // the clock, so the batch advances time once, after its last trial.
    if (pieces_) {
      run_pieces(t, end, chunk);
      t = end;
    }
    for (; t < end; ++t) {  // one-trial spans, drawn in blocks aligned to the step
      const std::uint64_t first = t - t % kSpan;
      if (first != block) {
        block = first;
        sample_trials(counters_.steps, seed_hash_, first,
                      static_cast<std::size_t>(std::min<std::uint64_t>(kSpan, budget - first)),
                      model_.alias_table(), types_.data(), draws_.data());
      }
      const std::size_t i = static_cast<std::size_t>(t - first);
      sites_[i] = chunk[chunk_position(draws_[i], static_cast<std::uint32_t>(chunk.size()))];
      run_trials(&sites_[i], &types_[i], 1, 0);
    }
    clock_.advance(time_, batch, rng_);
    counters_.trials += batch;
  }
  ++counters_.steps;
}

}  // namespace casurf
