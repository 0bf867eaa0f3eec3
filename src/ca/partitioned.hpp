#pragma once

#include <cstdint>
#include <memory>

#include "ca/rate_cache.hpp"
#include "core/simulator.hpp"
#include "partition/partition.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// The shared base of the partitioned CA family (paper section 5): PNDCA and
/// its threaded engine, L-PNDCA's "general structure" and the
/// type-partitioned T-PNDCA. Each member picks chunks, sites and types its
/// own way, then commits every trial that passes through this base's
/// serial commit. L-PNDCA and T-PNDCA test each trial through the base's
/// trial test; PNDCA tests whole spans of a chunk at once (see
/// PndcaSimulator). The base also owns what the family shares besides the
/// trial: the sequential generator with its checkpoint section, and the
/// optional incremental enabled-rate cache that serves the rate-weighted
/// chunk draws.
///
/// The cache is derived state: built at construction, rebuilt on restore,
/// audited on request, never serialized. Its slots are the partitions the
/// derived constructor registers through add_slot(), in order; the base
/// keeps no copy of them beyond the cache's site -> chunk maps.
class PartitionedSimulator : public Simulator {
 public:
  /// Registers the `<key>/rate_rechecks` and `<key>/boundary_rechecks`
  /// counters (see EnabledRateCache::attach_counters).
  void attach(const obs::Sinks& sinks) override;

  /// Whether chunk draws are rate-weighted, which is when the cache is live.
  [[nodiscard]] ChunkWeighting weighting() const {
    return rate_cache_ ? ChunkWeighting::kRateWeighted : ChunkWeighting::kStructural;
  }

  /// The incremental enabled-rate cache, or nullptr when chunk draws are not
  /// rate-weighted. Exposed for the cache-invariant tests.
  [[nodiscard]] const EnabledRateCache* rate_cache() const { return rate_cache_.get(); }

  /// Test-only mutable cache access for injecting corruption in the audit
  /// suite; nullptr when the cache is off.
  [[nodiscard]] EnabledRateCache* mutable_rate_cache_for_test() {
    return rate_cache_.get();
  }

  /// Checkpointing: after Simulator's sections, a section named by the key
  /// holding the generator. Overrides append their own fields after it. The
  /// rate cache is a pure function of the configuration, so restore rebuilds
  /// it instead of reading it.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Brute-force verifies the rate cache, when live; repair rebuilds it.
  void audit_derived_state(AuditReport& report, bool repair) override;

 protected:
  /// `key` names the checkpoint section and the metrics prefix ("pndca",
  /// "lpndca", "tpndca"); `rate_weighted` turns the rate cache on.
  PartitionedSimulator(const ReactionModel& model, Configuration config,
                       std::uint64_t seed, const char* key, bool rate_weighted);

  /// Checks that `p` lies on this simulator's lattice and, when the cache is
  /// live, registers it as the cache's next slot.
  void add_slot(const Partition& p);

  /// The per-trial test of L-PNDCA and T-PNDCA: whether reaction `t` is
  /// enabled at `s`. It reads the cache's bitset when the cache is live —
  /// the serial commit refreshes it after every execution, so both answers
  /// agree — and matches the pattern on the lattice otherwise. Records the
  /// attempt, and the fire when the test passes, in the spatial probe.
  [[nodiscard]] bool trial_passes(SiteIndex s, ReactionIndex t) {
    spatial_.attempt(s);
    const bool on = rate_cache_ ? rate_cache_->enabled(s, t)
                                : model_.reaction(t).enabled(config_, s);
    if (on) spatial_.fire(s);
    return on;
  }

  /// The serial commit of a passed trial: execute `t` at `s`, refresh the
  /// cache (whose slot `slot` classifies the written sites for the boundary
  /// counter) and count the execution.
  void commit(SiteIndex s, ReactionIndex t, std::size_t slot);

  Xoshiro256 rng_;  // the sequential draws: schedules, sites, types, time
  std::unique_ptr<EnabledRateCache> rate_cache_;  // rate-weighted draws only

 private:
  const char* key_;
};

}  // namespace casurf
