#pragma once

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"
#include "dmc/demand_zero_array.hpp"
#include "model/probe_plans.hpp"
#include "obs/metrics.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// First Reaction Method: exact event-driven DMC that draws a tentative
/// firing time ~ Exp(k_i) for every (reaction type, anchor) pair the moment
/// it becomes enabled, and always executes the earliest pending event.
/// Stale events (whose reaction was disabled, or re-enabled later) are
/// invalidated lazily via per-pair generation counters — the standard
/// technique that keeps updates O(log n) amortised without a decrease-key
/// heap. Statistically equivalent to VSSM; included because the paper's
/// framing (waiting times per reaction, Segers' correctness criteria) is
/// exactly the FRM view.
class FrmSimulator final : public Simulator {
 public:
  FrmSimulator(const ReactionModel& model, Configuration config, std::uint64_t seed);

  void mc_step() override;
  void advance_to(double t) override;
  [[nodiscard]] std::string name() const override { return "FRM"; }

  void attach(const obs::Sinks& sinks) override;

  /// Number of (type, site) pairs currently enabled.
  [[nodiscard]] std::uint64_t enabled_pairs() const { return enabled_pairs_; }
  [[nodiscard]] bool stalled() const { return enabled_pairs_ == 0; }

  /// A tentative event: the pair (type, site) fires at `when` unless its
  /// generation has moved on since the draw.
  struct Event {
    double when;
    SiteIndex site;
    ReactionIndex type;
    std::uint32_t generation;
    // Min-heap on time.
    friend bool operator<(const Event& a, const Event& b) { return a.when > b.when; }
  };

  /// Pending (possibly stale) events in the queue; exposed for tests of the
  /// lazy-invalidation bound.
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }

  /// The queue's heap array in storage order, as checkpoints carry it;
  /// exposed for the test of the initial build's push order.
  [[nodiscard]] const std::vector<Event>& queue() const { return queue_; }

  /// Checkpointing: the heap array is serialized verbatim (not as a sorted
  /// event list), so the restored queue pops ties and lays out future
  /// pushes exactly as the uninterrupted run would.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Recomputes per-pair enabledness and the queue's live-event cover from
  /// the configuration; repair resynchronizes flags and redraws tentative
  /// times for every enabled pair. Flags and queue are the only derived
  /// state: rechecks read the configuration.
  void audit_derived_state(AuditReport& report, bool repair) override;

  /// Test-only corruption hook for the audit suite: flips the enabled flag
  /// of one (type, site) pair without touching the queue.
  void corrupt_pair_for_test(ReactionIndex rt, SiteIndex s);

 private:
  [[nodiscard]] std::size_t pair_index(ReactionIndex rt, SiteIndex s) const {
    return static_cast<std::size_t>(rt) * config_.size() + s;
  }
  void push_event(const Event& ev);
  void pop_event();
  void sync_pair(ReactionIndex rt, SiteIndex s, bool now);
  bool drop_stale_heads();
  void execute_head();

  Xoshiro256 rng_;
  // Explicit binary heap via std::push_heap/pop_heap — the same algorithms
  // std::priority_queue is specified to use, but with the underlying array
  // accessible for verbatim checkpointing.
  std::vector<Event> queue_;
  // Per (type, site) pair, type-major (pair_index), on demand-zero pages
  // (dmc/demand_zero_array.hpp): a pair's entries are written only once it
  // is first enabled, so a type costs table memory only on the pages of
  // sites where it is ever enabled, not 5 bytes per lattice site.
  DemandZeroArray<std::uint32_t> generation_;  // bumped at every flag change
  DemandZeroArray<std::uint8_t> enabled_flag_;
  std::uint64_t enabled_pairs_ = 0;
  Rechecker rechecker_;
  obs::Timer* step_timer_ = nullptr;         // frm/step
  obs::Timer* drop_stale_timer_ = nullptr;   // frm/drop_stale
  obs::Counter* stale_dropped_ = nullptr;    // frm/stale_dropped
};

}  // namespace casurf
