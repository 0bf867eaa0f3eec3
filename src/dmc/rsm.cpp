#include "dmc/rsm.hpp"

#include "rng/distributions.hpp"

namespace casurf {

RsmSimulator::RsmSimulator(const ReactionModel& model, Configuration config,
                           std::uint64_t seed, TimeMode time_mode)
    : Simulator(model, std::move(config)),
      rng_(seed),
      clock_(time_mode, config_.size(), model.total_rate()) {}

void RsmSimulator::select_and_execute() {
  // 1. select a site s with probability 1/N
  const auto s = static_cast<SiteIndex>(uniform_below(rng_, config_.size()));
  // 2. select a reaction type i with probability k_i / K
  const ReactionIndex rt = model_.sample_type(rng_);
  // 3-4. check enabledness; execute
  const ReactionType& reaction = model_.reaction(rt);
  spatial_.attempt(s);
  if (reaction.enabled(config_, s)) {
    reaction.execute(config_, s);
    record_execution(rt);
    spatial_.fire(s);
  }
  ++counters_.trials;
}

void RsmSimulator::trial() {
  select_and_execute();
  // 5. advance the time by drawing from 1 - exp(-N K t)
  time_ += clock_.increment(rng_);
}

void RsmSimulator::mc_step() {
  const obs::ScopedPhase phase(step_phase_, time_, counters_.steps);
  const SiteIndex n = config_.size();
  for (SiteIndex i = 0; i < n; ++i) trial();
  ++counters_.steps;
}

void RsmSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("rsm");
  rng_.save(w);
}

void RsmSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("rsm");
  rng_.restore(r);
}

void RsmSimulator::advance_to(double t) {
  const obs::ScopedPhase phase(advance_phase_, time_, counters_.steps);
  while (time_ < t) {
    const double dt = clock_.increment(rng_);
    if (time_ + dt > t) {
      time_ = t;
      return;
    }
    time_ += dt;
    select_and_execute();
  }
}

}  // namespace casurf
