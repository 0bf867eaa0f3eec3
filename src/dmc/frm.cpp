#include "dmc/frm.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace casurf {

FrmSimulator::FrmSimulator(const ReactionModel& model, Configuration config,
                           std::uint64_t seed)
    : Simulator(model, std::move(config)),
      rng_(seed),
      generation_(static_cast<std::size_t>(model.num_reactions()) * config_.size()),
      enabled_flag_(generation_.size()),
      rechecker_(model, config_.lattice()) {
  // Type by type, each in raster order: the order of the time draws and
  // of the queue's pushes.
  const SpeciesBitplanes planes(config_);
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    rechecker_.probes().for_each_enabled(planes, i,
                                         [&](SiteIndex s) { sync_pair(i, s, true); });
  }
}

void FrmSimulator::push_event(const Event& ev) {
  queue_.push_back(ev);
  std::push_heap(queue_.begin(), queue_.end());
}

void FrmSimulator::pop_event() {
  std::pop_heap(queue_.begin(), queue_.end());
  queue_.pop_back();
}

void FrmSimulator::sync_pair(ReactionIndex rt, SiteIndex s, bool now) {
  const std::size_t p = pair_index(rt, s);
  const bool was = enabled_flag_[p] != 0;
  if (now == was) return;
  enabled_flag_[p] = now ? 1 : 0;
  ++generation_[p];  // invalidates any queued event for this pair
  if (now) {
    ++enabled_pairs_;
    // Memorylessness of the exponential lets us draw the tentative firing
    // time fresh from "now" at every disabled->enabled transition.
    push_event(Event{time_ + exponential(rng_, model_.reaction(rt).rate()),
                     s, rt, generation_[p]});
  } else {
    --enabled_pairs_;
  }
}

bool FrmSimulator::drop_stale_heads() {
  // Pop until the head is a live event: generation matches and the pair is
  // still flagged enabled. Returns false when no live event remains.
  const obs::ScopedTimer span(drop_stale_timer_);
  while (!queue_.empty()) {
    const Event& ev = queue_.front();
    const std::size_t p = pair_index(ev.type, ev.site);
    if (ev.generation != generation_[p] || enabled_flag_[p] == 0) {
      pop_event();
      if (stale_dropped_ != nullptr) stale_dropped_->add();
      continue;
    }
    return true;
  }
  return false;
}

void FrmSimulator::attach(const obs::Sinks& sinks) {
  Simulator::attach(sinks);
  obs::MetricsRegistry* const registry = sinks.metrics;
  step_timer_ = registry ? &registry->timer("frm/step") : nullptr;
  drop_stale_timer_ = registry ? &registry->timer("frm/drop_stale") : nullptr;
  stale_dropped_ = registry ? &registry->counter("frm/stale_dropped") : nullptr;
}

void FrmSimulator::execute_head() {
  const Event ev = queue_.front();
  pop_event();
  time_ = ev.when;
  const std::size_t p = pair_index(ev.type, ev.site);

  const ReactionType& rt = model_.reaction(ev.type);
  const Species* old_species = rechecker_.execute(config_, rt, ev.site);
  record_execution(ev.type);
  // Event-driven selection never rejects: every attempt fires.
  spatial_.attempt(ev.site);
  spatial_.fire(ev.site);
  ++counters_.trials;
  ++counters_.steps;

  // The fired pair itself: if still enabled in the new state it needs a
  // fresh draw; force the transition by marking it disabled first.
  enabled_flag_[p] = 0;
  --enabled_pairs_;
  ++generation_[p];
  sync_pair(ev.type, ev.site, rt.enabled(config_, ev.site));

  rechecker_.after_fire(config_, rt, ev.site, old_species,
                        [&](ReactionIndex i, SiteIndex anchor, bool now) {
                          sync_pair(i, anchor, now);
                        });
}

void FrmSimulator::mc_step() {
  // Empty queue: absorbing state; advance_to() handles time.
  if (!drop_stale_heads()) return;
  const obs::ScopedTimer span(step_timer_);
  const obs::ScopedSpan trace(trace_, "frm/step", time_, counters_.steps);
  execute_head();
}

void FrmSimulator::advance_to(double t) {
  // Events have absolute firing times, so the head beyond t simply stays
  // scheduled; the state AT t is exact.
  while (time_ < t) {
    if (!drop_stale_heads()) {
      time_ = t;
      return;
    }
    if (queue_.front().when > t) {
      time_ = t;
      return;
    }
    const obs::ScopedTimer span(step_timer_);
    const obs::ScopedSpan trace(trace_, "frm/step", time_, counters_.steps);
    execute_head();
  }
}

void FrmSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("frm");
  rng_.save(w);
  w.vec_u64(generation_);
  w.u64(enabled_flag_.size());
  w.bytes(enabled_flag_.data(), enabled_flag_.size());
  w.u64(enabled_pairs_);
  w.u64(queue_.size());
  for (const Event& ev : queue_) {
    w.f64(ev.when);
    w.u64(ev.site);
    w.u64(ev.type);
    w.u64(ev.generation);
  }
}

void FrmSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("frm");
  rng_.restore(r);
  // Read straight into fresh zeroed tables, writing only the nonzero
  // entries: a resumed run touches the pages the saved run touched, no
  // more, and no temporary copy of a table is built.
  const std::size_t pairs = generation_.size();
  r.vec_u64_size(pairs, "frm generations");
  generation_ = DemandZeroArray<std::uint32_t>(pairs);
  for (std::uint32_t& g : generation_) {
    const auto v = r.u64_as<std::uint32_t>("frm generations");
    if (v != 0) g = v;
  }
  const std::uint64_t nflags = r.u64();
  if (nflags != pairs) {
    throw StateFormatError("frm enabled-flag table has " + std::to_string(nflags) +
                           " entries, expected " + std::to_string(pairs));
  }
  enabled_flag_ = DemandZeroArray<std::uint8_t>(pairs);
  std::uint64_t live = 0;
  for (std::uint8_t& f : enabled_flag_) {
    const std::uint8_t v = r.u8();
    if (v != 0) f = v;
    live += v;
  }
  enabled_pairs_ = r.u64();
  if (live != enabled_pairs_) {
    throw StateFormatError("frm enabled-pair count " + std::to_string(enabled_pairs_) +
                           " disagrees with flag table (" + std::to_string(live) + ")");
  }
  const std::uint64_t nq = r.u64();
  if (nq > static_cast<std::uint64_t>(r.remaining()) / 32) {
    throw StateFormatError("frm queue length " + std::to_string(nq) +
                           " exceeds remaining stream");
  }
  queue_.clear();
  queue_.reserve(static_cast<std::size_t>(nq));
  for (std::uint64_t i = 0; i < nq; ++i) {
    Event ev;
    ev.when = r.f64();
    ev.site = r.u64_as<SiteIndex>("frm queued event site");
    ev.type = r.u64_as<ReactionIndex>("frm queued event type");
    ev.generation = r.u64_as<std::uint32_t>("frm queued event generation");
    if (ev.site >= config_.size() || ev.type >= model_.num_reactions()) {
      throw StateFormatError("frm queued event references (type " +
                             std::to_string(ev.type) + ", site " +
                             std::to_string(ev.site) + ") out of range");
    }
    // Saved verbatim from a valid heap, so the array is restored verbatim —
    // no re-heapify, preserving pop order even among equal keys.
    queue_.push_back(ev);
  }
  if (!std::is_heap(queue_.begin(), queue_.end())) {
    throw StateFormatError("frm queue is not a valid heap");
  }
  // Flags and queue cover must agree with the restored configuration.
  reject_inconsistent_restore();
}

void FrmSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  bool any = false;

  // Flags vs recomputed enabledness, and the flag-count invariant.
  std::uint64_t live_flags = 0;
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    const ReactionType& rt = model_.reaction(i);
    for (SiteIndex s = 0; s < config_.size(); ++s) {
      const bool truth = rt.enabled(config_, s);
      const bool cached = enabled_flag_[pair_index(i, s)] != 0;
      if (cached) ++live_flags;
      if (truth == cached) continue;
      any = true;
      if (report.issues.size() < 64) {
        report.issues.push_back(
            {"frm-queue", "pair (type " + std::to_string(i) + ", site " +
                              std::to_string(s) + "): flag says " +
                              (cached ? "enabled" : "disabled") +
                              ", recompute says " + (truth ? "enabled" : "disabled")});
      }
    }
  }
  if (live_flags != enabled_pairs_) {
    any = true;
    report.issues.push_back(
        {"frm-queue", "enabled-pair counter " + std::to_string(enabled_pairs_) +
                          " disagrees with flag table (" + std::to_string(live_flags) +
                          ")"});
  }

  // Every enabled pair must be covered by exactly one live queued event.
  DemandZeroArray<std::uint8_t> covered(generation_.size());
  for (const Event& ev : queue_) {
    const std::size_t p = pair_index(ev.type, ev.site);
    if (ev.generation != generation_[p] || enabled_flag_[p] == 0) continue;  // stale
    if (covered[p]) {
      any = true;
      report.issues.push_back(
          {"frm-queue", "pair (type " + std::to_string(ev.type) + ", site " +
                            std::to_string(ev.site) + ") has multiple live events"});
    }
    covered[p] = 1;
  }
  for (std::size_t p = 0; p < covered.size() && report.issues.size() < 96; ++p) {
    if (enabled_flag_[p] != 0 && !covered[p]) {
      any = true;
      report.issues.push_back(
          {"frm-queue", "pair (type " + std::to_string(p / config_.size()) + ", site " +
                            std::to_string(p % config_.size()) +
                            ") has no live queued event"});
    }
  }

  if (any && repair) {
    // Full resynchronization: recompute flags from the configuration, drop
    // the whole queue, and redraw a tentative time for every enabled pair.
    // The redraw consumes fresh randomness — correct kinetics from here on,
    // though not the trajectory an uncorrupted run would have taken.
    queue_.clear();
    enabled_pairs_ = 0;
    for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
      const ReactionType& rt = model_.reaction(i);
      for (SiteIndex s = 0; s < config_.size(); ++s) {
        const std::size_t p = pair_index(i, s);
        ++generation_[p];  // invalidate anything that referenced the old state
        const bool now = rt.enabled(config_, s);
        enabled_flag_[p] = now ? 1 : 0;
        if (now) {
          ++enabled_pairs_;
          push_event(Event{time_ + exponential(rng_, rt.rate()), s, i, generation_[p]});
        }
      }
    }
  }
}

void FrmSimulator::corrupt_pair_for_test(ReactionIndex rt, SiteIndex s) {
  enabled_flag_[pair_index(rt, s)] ^= 1;
}

}  // namespace casurf
