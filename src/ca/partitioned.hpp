#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ca/rate_cache.hpp"
#include "core/simulator.hpp"
#include "model/probe_plans.hpp"
#include "partition/partition.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// The shared base of the partitioned CA family (paper section 5): PNDCA at
/// any thread count, L-PNDCA's "general structure" and the
/// type-partitioned T-PNDCA. Each member picks chunks, sites and types its
/// own way, then commits every trial that passes through this base's
/// serial commit. PNDCA tests a whole chunk sweep, span by span through
/// the base's span test (test_span), before committing it, and L-PNDCA a
/// piece of a batch at a time through the base's span routine, run_trials,
/// whose passes each test the piece's remaining trials and commit them up
/// to the first hit whose site recurs; both use the block-rule verdict the
/// base keeps per partition. T-PNDCA runs one-trial spans of
/// run_trials. The base also owns what the family shares besides the
/// trial: the sequential generator and the seed hash that keys the counter
/// streams, with their checkpoint section, and the optional incremental
/// enabled-rate cache that serves the rate-weighted chunk draws.
///
/// The cache is derived state: built at construction, rebuilt on restore,
/// audited on request, never serialized. Its slots are the partitions the
/// derived constructor registers through add_slot(), in order; the base
/// keeps no copy of them beyond the cache's site -> chunk maps and the
/// block-rule verdicts.
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

  /// Whether slot i's partition passes the block rule (see add_slot).
  [[nodiscard]] bool blocks(std::size_t i) const { return blocks_[i] != 0; }

  /// Checkpointing: after Simulator's sections, a section named by the key
  /// holding the generator and the seed hash. Overrides append their own
  /// fields after it. The rate cache is a pure function of the
  /// configuration, so restore rebuilds it instead of reading it. Restore
  /// refuses a checkpoint written under another seed: the counter streams
  /// are keyed by the constructor's seed, so the run would fork silently.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Brute-force verifies the rate cache, when live; repair rebuilds it.
  void audit_derived_state(AuditReport& report, bool repair) override;

 protected:
  /// `key` names the checkpoint section and the metrics prefix ("pndca",
  /// "lpndca", "tpndca"); `rate_weighted` turns the rate cache on.
  PartitionedSimulator(const ReactionModel& model, Configuration config,
                       std::uint64_t seed, const char* key, bool rate_weighted);

  /// Checks that `p` lies on this simulator's lattice, registers it as the
  /// cache's next slot when the cache is live, and records its block-rule
  /// verdict: whether no commit at a site of one of its chunks writes a site
  /// that a trial at another site of the same chunk reads, which is
  /// verify_partition against conflict_offsets(model, kReadWrite).
  void add_slot(const Partition& p);

  /// The most trials run_trials takes at once.
  static constexpr std::size_t kSpan = 256;

  /// The width of enabled_trials' lanes: run_trials tests fewer trials
  /// than this one at a time.
  static constexpr std::size_t kLanes = 8;

  /// The serial span routine: runs the trials (sites[i], types[i]), i < n
  /// <= kSpan, in draw order, committing each that passes through commit()
  /// with cache slot `slot`, which is the one-trial-at-a-time loop's answer
  /// when every site lies in one chunk of a slot that passes the block rule.
  /// The sites may repeat. Callers keep spans of one trial otherwise.
  ///
  /// Under the block rule a commit changes no other trial's test but one at
  /// the same site, and a trial that fails writes nothing. So while at least
  /// kLanes trials are left, a pass tests them all in 8 lanes
  /// (enabled_trials) against the configuration as it stands, commits the
  /// hits in draw order up to and including the first hit whose site occurs
  /// again later in the span (first_recurring_hit), and the next pass starts
  /// at the trial after that hit; with no such hit the pass takes the rest.
  /// Fewer than kLanes trials take the scalar test on the bytes a trial at
  /// a time, without the lanes' dispatch, committing each before testing the
  /// next. A spatial map records an attempt for every trial when a pass
  /// consumes it and a fire for every commit.
  void run_trials(const SiteIndex* sites, const ReactionIndex* types, std::size_t n,
                  std::size_t slot) {
    if (n >= kLanes) {
      run_lanes(sites, types, n, slot);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 c = config_.lattice().coord(sites[i]);
      spatial_.attempt(sites[i]);
      if (!probes_.enabled(config_, types[i], c.x, c.y)) continue;
      spatial_.fire(sites[i]);
      commit(sites[i], types[i], slot);
    }
  }

  /// The span test: tests the trials (sites[i], types[i]), i < n <= kSpan,
  /// in 8 lanes (enabled_trials) against the configuration as it stands,
  /// writes the indices of those that pass to `hits` in order and returns
  /// their count. It writes nothing else but, when a spatial map is
  /// attached, an attempt tally for every trial's site and a fire tally for
  /// every hit's, so concurrent calls on disjoint sites do not race.
  std::size_t test_span(const SiteIndex* sites, const ReactionIndex* types, std::size_t n,
                        std::uint32_t* hits) const;

  /// The serial commit of a passed trial: execute `t` at `s`, refresh the
  /// cache (whose slot `slot` classifies the written sites for the boundary
  /// counter) and count the execution.
  void commit(SiteIndex s, ReactionIndex t, std::size_t slot);

  Xoshiro256 rng_;  // the sequential draws: chunk schedules, T-PNDCA's types, time
  std::uint64_t seed_hash_;  // CounterRng::seed_hash(seed), keys the counter streams
  ProbePlans probes_;  // the span test's compiled patterns
  std::unique_ptr<EnabledRateCache> rate_cache_;  // rate-weighted draws only

 private:
  /// run_trials over n >= kLanes trials: the 8-lane passes, then the
  /// scalar tail.
  void run_lanes(const SiteIndex* sites, const ReactionIndex* types, std::size_t n,
                 std::size_t slot);

  const char* key_;
  std::vector<char> blocks_;  // blocks_[i]: slot i passes the block rule
};

}  // namespace casurf
