#include "ca/partitioned.hpp"

#include <stdexcept>

#include "ca/fastpath.hpp"
#include "partition/conflict.hpp"
#include "rng/counter_rng.hpp"

namespace casurf {

PartitionedSimulator::PartitionedSimulator(const ReactionModel& model, Configuration config,
                                           std::uint64_t seed, const char* key,
                                           bool rate_weighted)
    : Simulator(model, std::move(config)),
      rng_(seed),
      seed_hash_(CounterRng::seed_hash(seed)),
      probes_(model, config_.lattice().width(), config_.lattice().height()),
      key_(key) {
  if (rate_weighted) rate_cache_ = std::make_unique<EnabledRateCache>(model_, config_);
}

void PartitionedSimulator::add_slot(const Partition& p) {
  if (!(p.lattice() == config_.lattice())) {
    throw std::invalid_argument(name() + ": partition lattice mismatch");
  }
  if (rate_cache_) rate_cache_->add_partition(p);
  const bool ok =
      verify_partition(p, conflict_offsets(model_, ConflictPolicy::kReadWrite));
  blocks_.push_back(ok ? 1 : 0);
}

std::size_t PartitionedSimulator::test_span(const SiteIndex* sites,
                                            const ReactionIndex* types, std::size_t n,
                                            std::uint32_t* hits) const {
  const std::size_t passed = enabled_trials(probes_, config_, sites, types, n, hits);
  if (spatial_.map() != nullptr) {
    for (std::size_t i = 0; i < n; ++i) spatial_.attempt(sites[i]);
    for (std::size_t h = 0; h < passed; ++h) spatial_.fire(sites[hits[h]]);
  }
  return passed;
}

void PartitionedSimulator::run_lanes(const SiteIndex* sites, const ReactionIndex* types,
                                     std::size_t n, std::size_t slot) {
  std::uint32_t hits[kSpan];
  while (n >= kLanes) {
    const std::size_t passed = enabled_trials(probes_, config_, sites, types, n, hits);
    // No hit before the cut shares its site with a later trial, so those
    // commits change no other test of this pass; the cut's commit may, so
    // the next pass starts after it.
    const std::size_t cut = first_recurring_hit(sites, n, hits, passed);
    const std::size_t commits = cut < passed ? cut + 1 : passed;
    const std::size_t used = cut < passed ? hits[cut] + 1 : n;
    if (spatial_.map() != nullptr) {
      for (std::size_t i = 0; i < used; ++i) spatial_.attempt(sites[i]);
      for (std::size_t h = 0; h < commits; ++h) spatial_.fire(sites[hits[h]]);
    }
    for (std::size_t h = 0; h < commits; ++h) commit(sites[hits[h]], types[hits[h]], slot);
    sites += used;
    types += used;
    n -= used;
  }
  run_trials(sites, types, n, slot);
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
  w.u64(seed_hash_);
}

void PartitionedSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section(key_);
  rng_.restore(r);
  if (r.u64() != seed_hash_) {
    throw StateFormatError(std::string(key_) +
                           ": the checkpoint was written under a different seed");
  }
  if (rate_cache_) rate_cache_->rebuild(config_);
}

void PartitionedSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  if (rate_cache_) rate_cache_->audit(config_, report, repair);
}

}  // namespace casurf
