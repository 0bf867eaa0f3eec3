#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ca/fastpath.hpp"
#include "core/audit.hpp"
#include "lattice/configuration.hpp"
#include "model/reaction_model.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"

namespace casurf {

/// Chunk-selection weighting for the PNDCA variants that support both their
/// structural default and the paper's "option 4" rate weighting.
enum class ChunkWeighting {
  kStructural,    ///< the algorithm's own default (size-proportional for
                  ///< L-PNDCA, uniform for TPNDCA)
  kRateWeighted,  ///< weighted by the rate of currently-enabled reactions,
                  ///< served by the incremental EnabledRateCache
};

/// Incremental per-(chunk, reaction-type) enabled-count cache: the
/// bookkeeping that turns the paper's "option 4" rate-weighted chunk
/// selection from an O(N |T|) per-step rescan into an O(neighborhood)
/// update per executed reaction (the same direct-method bookkeeping VSSM
/// uses for event selection).
///
/// The cache keeps a site-major enabled-type bitset, maintained through
/// its own Rechecker (model/probe_plans.hpp: the library's one recheck
/// routine, which VSSM and FRM share, and which reads the configuration
/// itself); a recheck moves a count only when it flips a stored bit.
/// Partition slots aggregate the bitset into per-chunk counts. Enabledness
/// is partition-independent, so several partitions (PNDCA's cycling list,
/// TPNDCA's per-subset sub-partitions) share one bitset. The simulators'
/// trial test reads the lattice, never the bitset.
///
/// Invariant (checked in test_rate_cache.cpp): after every refresh,
/// count(slot, c, t) equals the brute-force recount of sites s in chunk c
/// with reaction t enabled at s in the current configuration.
///
/// Update rule: after a reaction writes site z, the Rechecker visits every
/// anchor a = z - o for offsets o in a type's neighborhood (less those the
/// write's old and new species cannot flip); a flip of the stored bit
/// adjusts every slot's count for (chunk_of(a), type) by +-1. Every
/// execution goes through execute(), one at a time on the committing
/// thread (threaded PNDCA's workers only test), so after each commit the
/// counts are those of the configuration as it then stands.
///
/// All counts are integers; each slot's cumulative chunk-rate table is
/// (re)derived from them in a fixed summation order, so identical counts
/// always produce identical draws. The draws themselves are
/// sample_cumulative's (rng/distributions.hpp), the library's one weighted
/// draw: the table is rebuilt whole after a change, at most once per draw
/// batch, and a handful of chunks per slot needs no partial-sum tree.
class EnabledRateCache {
 public:
  /// Builds the probe plans, and the bitset with one full scan of species
  /// bitplanes built from `config` for the purpose — the only full-lattice
  /// scan the cache performs outside rebuild() and verify().
  EnabledRateCache(const ReactionModel& model, const Configuration& config);

  /// Register a partition and aggregate the current enabledness into its
  /// per-chunk counts; returns the slot index for queries. The site->chunk
  /// map is copied, so the Partition need not outlive the cache.
  std::size_t add_partition(const Partition& partition);

  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t num_chunks(std::size_t slot) const {
    return slots_[slot].num_chunks;
  }

  /// Number of sites in chunk c (of slot's partition) where reaction type t
  /// is currently enabled.
  [[nodiscard]] std::uint32_t count(std::size_t slot, ChunkId c, ReactionIndex t) const {
    return slots_[slot].counts[static_cast<std::size_t>(c) * num_types_ + t];
  }

  /// Sum over types of k_t * count(slot, c, t): the chunk's enabled rate.
  [[nodiscard]] double chunk_rate(std::size_t slot, ChunkId c) const;

  /// The slot's chunk rates as a cumulative table (entry c is the sum of
  /// chunk_rate over chunks 0..c), for sample_cumulative. Rebuilt from the
  /// counts, left to right, on the first call after any of them changed.
  /// back() == 0 means no reaction is enabled anywhere; callers fall back
  /// to their structural draw.
  [[nodiscard]] const std::vector<double>& chunk_cumulative(std::size_t slot) const;

  /// Execute `rt` at `s` on `config` and bring the cache up to date: the
  /// Rechecker's execute and after_fire, folding each flip into the bitset
  /// and every slot's counts. `slot` names the partition whose seams
  /// classify the written sites for the boundary counter. The partitioned
  /// simulators' commit.
  void execute(Configuration& config, const ReactionType& rt, SiteIndex s,
               std::size_t slot);

  /// Registers the `<algo>/rate_rechecks` and `<algo>/boundary_rechecks`
  /// counters in `registry` — every run report lists them, cache or not —
  /// and points a live cache's refreshes at them: one recheck per written
  /// site, one boundary recheck per written site outside the anchor's chunk
  /// (a measured seam conflict). A null registry turns them off.
  static void attach_counters(EnabledRateCache* cache, obs::MetricsRegistry* registry,
                              const std::string& algo);

  /// Full rescan, re-deriving every bit and count from `config`
  /// (checkpoint restore, audit repair; never needed on the hot path).
  void rebuild(const Configuration& config);

  /// Brute-force verification against `config`: recomputes every
  /// enabledness bit and per-(chunk, type) count, and appends one
  /// description per mismatch to `out` (capped at
  /// `max_issues`). Returns true when the cache is consistent. The audit
  /// ground truth.
  bool verify(const Configuration& config, std::vector<std::string>& out,
              std::size_t max_issues = 64) const;

  /// The simulators' audit hook: one "rate-cache" issue per verify()
  /// mismatch; with `repair`, a rebuild after any mismatch.
  void audit(const Configuration& config, AuditReport& report, bool repair);

  /// Test-only corruption hooks for the audit suite. The first adds
  /// `delta` to one stored count; the second flips one enabledness bit.
  /// Neither touches the other structure.
  void corrupt_count_for_test(std::size_t slot, ChunkId c, ReactionIndex t,
                              std::int32_t delta) {
    slots_[slot].counts[static_cast<std::size_t>(c) * num_types_ + t] +=
        static_cast<std::uint32_t>(delta);
    slots_[slot].cumulative_dirty = true;
  }
  void corrupt_enabled_for_test(SiteIndex s, ReactionIndex t) {
    enabled_.assign(s, t, !enabled_.test(s, t));
  }

 private:
  struct Slot {
    std::vector<ChunkId> chunk_of;      // copied site -> chunk map
    std::size_t num_chunks = 0;
    std::vector<std::uint32_t> counts;  // [chunk * num_types + type]
    mutable std::vector<double> cumulative;  // chunk_cumulative()'s table
    mutable bool cumulative_dirty = true;
  };

  void recount_slot(Slot& slot) const;

  /// Sets the cached enabledness of `t` at `anchor` to `now` and folds a
  /// flip into every slot's counts. Idempotent.
  void apply_recheck(ReactionIndex t, SiteIndex anchor, bool now) {
    if (!enabled_.assign(anchor, t, now)) return;
    for (Slot& slot : slots_) {
      std::uint32_t& cnt =
          slot.counts[static_cast<std::size_t>(slot.chunk_of[anchor]) * num_types_ +
                      t];
      now ? ++cnt : --cnt;
      slot.cumulative_dirty = true;
    }
  }

  const ReactionModel& model_;
  std::size_t num_types_;
  SiteIndex num_sites_;
  Rechecker rechecker_;
  EnabledTypeSet enabled_;
  std::vector<Slot> slots_;
  obs::Counter* rechecks_ = nullptr;
  obs::Counter* boundary_ = nullptr;
};

}  // namespace casurf
