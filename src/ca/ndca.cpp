#include "ca/ndca.hpp"

#include <numeric>

#include "rng/distributions.hpp"

namespace casurf {

NdcaSimulator::NdcaSimulator(const ReactionModel& model, Configuration config,
                             std::uint64_t seed, TimeMode time_mode, SweepOrder order)
    : Simulator(model, std::move(config)),
      rng_(seed),
      clock_(time_mode, config_.size(), model.total_rate()),
      order_(order),
      visit_order_(config_.size()) {
  std::iota(visit_order_.begin(), visit_order_.end(), SiteIndex{0});
}

void NdcaSimulator::trial_at(SiteIndex s) {
  const ReactionIndex rt = model_.sample_type(rng_);
  const ReactionType& reaction = model_.reaction(rt);
  spatial_.attempt(s);
  if (reaction.enabled(config_, s)) {
    reaction.execute(config_, s);
    record_execution(rt);
    spatial_.fire(s);
  }
  time_ += clock_.increment(rng_);
  ++counters_.trials;
}

void NdcaSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("ndca");
  rng_.save(w);
  w.vec_u64(visit_order_);
}

void NdcaSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("ndca");
  rng_.restore(r);
  visit_order_ = r.vec_u64<SiteIndex>(config_.size(), "ndca visit order");
  std::vector<std::uint8_t> seen(config_.size(), 0);
  for (const SiteIndex s : visit_order_) {
    if (s >= config_.size() || seen[s]) {
      throw StateFormatError("ndca visit order is not a permutation of the sites");
    }
    seen[s] = 1;
  }
}

void NdcaSimulator::mc_step() {
  const obs::ScopedPhase phase(step_phase_, time_, counters_.steps);
  if (order_ == SweepOrder::kShuffled) {
    const obs::ScopedPhase shuffle(shuffle_phase_, time_, counters_.steps);
    // Fisher-Yates with the simulator's own generator.
    for (std::size_t i = visit_order_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_below(rng_, i));
      std::swap(visit_order_[i - 1], visit_order_[j]);
    }
  }
  for (const SiteIndex s : visit_order_) trial_at(s);
  ++counters_.steps;
}

}  // namespace casurf
