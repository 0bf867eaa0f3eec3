#include "ca/partitioned.hpp"

#include <stdexcept>

namespace casurf {

PartitionedSimulator::PartitionedSimulator(const ReactionModel& model, Configuration config,
                                           std::uint64_t seed, const char* key,
                                           bool rate_weighted)
    : Simulator(model, std::move(config)), rng_(seed), key_(key) {
  if (rate_weighted) rate_cache_ = std::make_unique<EnabledRateCache>(model_, config_);
}

void PartitionedSimulator::add_slot(const Partition& p) {
  if (!(p.lattice() == config_.lattice())) {
    throw std::invalid_argument(name() + ": partition lattice mismatch");
  }
  if (rate_cache_) rate_cache_->add_partition(p);
}

void PartitionedSimulator::commit(SiteIndex s, ReactionIndex t, std::size_t slot) {
  const ReactionType& reaction = model_.reaction(t);
  if (rate_cache_) {
    rate_cache_->execute(config_, reaction, s, slot);
  } else {
    reaction.execute(config_, s);
  }
  record_execution(t);
}

void PartitionedSimulator::attach(const obs::Sinks& sinks) {
  Simulator::attach(sinks);
  EnabledRateCache::attach_counters(rate_cache_.get(), sinks.metrics, key_);
}

void PartitionedSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section(key_);
  rng_.save(w);
}

void PartitionedSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section(key_);
  rng_.restore(r);
  if (rate_cache_) rate_cache_->rebuild(config_);
}

void PartitionedSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  if (rate_cache_) rate_cache_->audit(config_, report, repair);
}

}  // namespace casurf
