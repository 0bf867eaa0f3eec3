#pragma once

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"
#include "dmc/demand_zero_array.hpp"
#include "dmc/recheck_visit.hpp"
#include "model/probe_plans.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// First Reaction Method: exact event-driven DMC that draws a tentative
/// firing time ~ Exp(k_i) for every (reaction type, anchor) pair the moment
/// it becomes enabled, and always executes the earliest pending event.
/// The queue is an indexed binary min-heap (Gibson-Bruck) holding exactly
/// one event per enabled pair: a pair that is disabled leaves the heap at
/// once, so every event in it is live. Statistically equivalent to VSSM;
/// included because the paper's framing (waiting times per reaction,
/// Segers' correctness criteria) is exactly the FRM view.
class FrmSimulator final : public Simulator {
 public:
  FrmSimulator(const ReactionModel& model, Configuration config, std::uint64_t seed);

  void mc_step() override;
  void advance_to(double t) override;
  [[nodiscard]] std::string name() const override { return "FRM"; }

  /// Number of (type, site) pairs currently enabled: the queue's length.
  [[nodiscard]] std::uint64_t enabled_pairs() const { return queue_.size(); }
  [[nodiscard]] bool stalled() const { return queue_.empty(); }

  /// A pending event: the pair (type, site) fires at `when`.
  struct Event {
    double when;
    SiteIndex site;
    ReactionIndex type;
    // "a fires later than b": the std heap algorithms then keep the
    // earliest event at the front.
    friend bool operator<(const Event& a, const Event& b) { return a.when > b.when; }
  };

  /// The queue's heap array in storage order, as checkpoints carry it.
  [[nodiscard]] const std::vector<Event>& queue() const { return queue_; }

  /// Checkpointing: the heap array is serialized verbatim (not as a sorted
  /// event list), so the restored queue pops ties and lays out future
  /// pushes exactly as the uninterrupted run would. The index is rebuilt
  /// from it.
  void save_state(StateWriter& w) const override;
  void restore_state(StateReader& r) override;

  /// Checks every pair's index entry against the configuration and against
  /// the heap entry it points at, and the queue's heap order; repair
  /// rebuilds index and queue from the configuration, with fresh tentative
  /// times. Index and queue are the only derived state: rechecks read the
  /// configuration.
  void audit_derived_state(AuditReport& report, bool repair) override;

  /// Test-only corruption hook for the audit suite: toggles the index entry
  /// of one (type, site) pair between 0 (disabled) and heap slot 1,
  /// without touching the queue.
  void corrupt_pair_for_test(ReactionIndex rt, SiteIndex s);

 private:
  [[nodiscard]] std::size_t pair_index(ReactionIndex rt, SiteIndex s) const {
    return static_cast<std::size_t>(rt) * config_.size() + s;
  }
  void build_queue();
  void sync_pair(ReactionIndex rt, SiteIndex s, bool now);
  void push_event(const Event& ev);
  void remove_event(std::size_t k);
  void sift_up(std::size_t k, const Event& ev);
  void sift_down(std::size_t k, const Event& ev);
  void place(std::size_t k, const Event& ev) {
    queue_[k] = ev;
    slot_[pair_index(ev.type, ev.site)] = static_cast<std::uint32_t>(k + 1);
  }
  void execute_head();

  Xoshiro256 rng_;
  // Binary min-heap on firing time, one event per enabled pair.
  std::vector<Event> queue_;
  // Per (type, site) pair, type-major (pair_index): the pair's heap slot
  // + 1, 0 while it is disabled. On demand-zero pages
  // (dmc/demand_zero_array.hpp), so a type costs index memory only on the
  // pages of sites where it is ever enabled.
  DemandZeroArray<std::uint32_t> slot_;
  Rechecker rechecker_;
  std::vector<RecheckVisit> visits_;  // the event's rechecks, reserved at construction
  obs::Phase step_phase_{phases_, "frm/step"};
};

}  // namespace casurf
