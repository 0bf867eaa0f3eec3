#include "ca/tpndca.hpp"

#include <cmath>
#include <stdexcept>

#include "rng/distributions.hpp"

namespace casurf {

TPndcaSimulator::TPndcaSimulator(const ReactionModel& model, Configuration config,
                                 std::vector<TypeSubset> subsets, std::uint64_t seed,
                                 ChunkWeighting weighting)
    : PartitionedSimulator(model, std::move(config), seed, "tpndca",
                           weighting == ChunkWeighting::kRateWeighted),
      subsets_(std::move(subsets)) {
  if (subsets_.empty()) {
    throw std::invalid_argument("TPNDCA: at least one type subset required");
  }
  double acc = 0;
  double mean_chunks = 0;
  for (const TypeSubset& sub : subsets_) {
    if (sub.types.empty() || !(sub.total_rate > 0)) {
      throw std::invalid_argument("TPNDCA: empty or rate-less type subset");
    }
    add_slot(sub.chunks);
    acc += sub.total_rate;
    mean_chunks += static_cast<double>(sub.chunks.num_chunks());
    subset_cumulative_.push_back(acc);
    std::vector<double>& rates = type_cumulative_.emplace_back();
    double k = 0;
    for (const ReactionIndex i : sub.types) rates.push_back(k += model_.reaction(i).rate());
  }
  // The average chunk count makes E[executions of type i per step] equal
  // to RSM's (k_i / K) * n_enabled(i) when subsets share a chunk count
  // (they do for the canonical 2-subset / 2-chunk construction).
  sweeps_per_step_ = static_cast<std::uint32_t>(
      std::lround(mean_chunks / static_cast<double>(subsets_.size())));
  if (sweeps_per_step_ == 0) sweeps_per_step_ = 1;
}

ChunkId TPndcaSimulator::select_chunk(std::size_t subset_index, ReactionIndex chosen) {
  const TypeSubset& sub = subsets_[subset_index];
  const std::size_t m = sub.chunks.num_chunks();
  if (rate_cache_) {
    // Weight each chunk of the subset's sub-partition by the cached number
    // of sites where the chosen type is enabled; zero-count chunks are
    // unselectable. Enabled-nowhere types keep the uniform draw so the
    // sweep (and its time advance) still happens.
    chunk_cumulative_.resize(m);
    double total = 0;
    for (ChunkId c = 0; c < m; ++c) {
      chunk_cumulative_[c] = total +=
          static_cast<double>(rate_cache_->count(subset_index, c, chosen));
    }
    if (total > 0) {
      return static_cast<ChunkId>(sample_cumulative(chunk_cumulative_, uniform01(rng_)));
    }
  }
  return static_cast<ChunkId>(uniform_below(rng_, m));
}

void TPndcaSimulator::mc_step() {
  const obs::ScopedPhase step(step_phase_, time_, counters_.steps);
  const double total_k = model_.total_rate();
  for (std::uint32_t sweep = 0; sweep < sweeps_per_step_; ++sweep) {
    const obs::ScopedPhase phase(sweep_phase_, time_, counters_.steps);
    // select T_j with probability K_Tj / K
    const std::size_t j = sample_cumulative(subset_cumulative_, uniform01(rng_));
    const TypeSubset& sub = subsets_[j];

    // select a reaction type from T_j with probability k_i / K_Tj
    const ReactionIndex chosen =
        sub.types[sample_cumulative(type_cumulative_[j], uniform01(rng_))];

    // select P_i from the subset's partition, then execute the chosen type
    // at every enabled site of the chunk. Same-chunk anchors of a single
    // type never overlap, so this whole sweep is a parallel batch; it runs
    // as one-trial spans of the base's span routine, each tested on the
    // lattice and committed before the next. Slot j: the subset's own
    // sub-partition classifies seam rechecks.
    const ChunkId c = select_chunk(j, chosen);
    for (const SiteIndex s : sub.chunks.chunk(c)) {
      ++counters_.trials;
      run_trials(&s, &chosen, 1, j);
    }

    // One sweep stands for 1/sweeps_per_step of an MC step: advance by the
    // corresponding share of the mean MC-step duration 1/K.
    time_ += 1.0 / (total_k * static_cast<double>(sweeps_per_step_));
  }
  ++counters_.steps;
}

}  // namespace casurf
