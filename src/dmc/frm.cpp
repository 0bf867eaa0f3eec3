#include "dmc/frm.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "rng/distributions.hpp"

namespace casurf {

namespace {
// Heap slots are kept + 1 in a 32-bit index entry.
constexpr std::size_t kMaxQueued = std::numeric_limits<std::uint32_t>::max();

std::string pair_name(ReactionIndex type, SiteIndex site) {
  return "pair (type " + std::to_string(type) + ", site " + std::to_string(site) + ")";
}
}  // namespace

FrmSimulator::FrmSimulator(const ReactionModel& model, Configuration config,
                           std::uint64_t seed)
    : Simulator(model, std::move(config)),
      rng_(seed),
      slot_(static_cast<std::size_t>(model.num_reactions()) * config_.size()),
      rechecker_(model, config_.lattice()) {
  visits_.reserve(max_recheck_visits(model));
  build_queue();
}

void FrmSimulator::build_queue() {
  // Type by type, each in raster order: the order of the time draws and
  // of the queue's pushes.
  const SpeciesBitplanes planes(config_);
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    rechecker_.probes().for_each_enabled(planes, i,
                                         [&](SiteIndex s) { sync_pair(i, s, true); });
  }
}

void FrmSimulator::sync_pair(ReactionIndex rt, SiteIndex s, bool now) {
  const std::uint32_t slot = slot_[pair_index(rt, s)];
  if (now == (slot != 0)) return;
  if (now) {
    // Memorylessness of the exponential lets us draw the tentative firing
    // time fresh from "now" at every disabled->enabled transition.
    push_event(Event{time_ + exponential(rng_, model_.reaction(rt).rate()), s, rt});
  } else {
    remove_event(slot - 1);
  }
}

void FrmSimulator::push_event(const Event& ev) {
  if (queue_.size() == kMaxQueued) {
    throw std::length_error("FRM: more than 2^32 - 1 enabled (type, site) pairs");
  }
  queue_.push_back(ev);
  sift_up(queue_.size() - 1, ev);
}

void FrmSimulator::remove_event(std::size_t k) {
  const Event& gone = queue_[k];
  slot_[pair_index(gone.type, gone.site)] = 0;
  const Event last = queue_.back();
  queue_.pop_back();
  if (k == queue_.size()) return;
  if (k > 0 && queue_[(k - 1) / 2] < last) {
    sift_up(k, last);
  } else {
    sift_down(k, last);
  }
}

// std::push_heap's rule: the entry rises while its parent fires strictly
// later, so pushes lay out the heap array as std::push_heap would.
void FrmSimulator::sift_up(std::size_t k, const Event& ev) {
  while (k > 0 && queue_[(k - 1) / 2] < ev) {
    place(k, queue_[(k - 1) / 2]);
    k = (k - 1) / 2;
  }
  place(k, ev);
}

void FrmSimulator::sift_down(std::size_t k, const Event& ev) {
  const std::size_t n = queue_.size();
  for (std::size_t child = 2 * k + 1; child < n; child = 2 * k + 1) {
    if (child + 1 < n && queue_[child] < queue_[child + 1]) ++child;
    if (!(ev < queue_[child])) break;
    place(k, queue_[child]);
    k = child;
  }
  place(k, ev);
}

void FrmSimulator::execute_head() {
  const obs::ScopedPhase phase(step_phase_, time_, counters_.steps);
  const Event ev = queue_.front();
  remove_event(0);
  time_ = ev.when;

  const ReactionType& rt = model_.reaction(ev.type);
  const Species* old_species = rechecker_.execute(config_, rt, ev.site);
  record_execution(ev.type);
  // Event-driven selection never rejects: every attempt fires.
  spatial_.attempt(ev.site);
  spatial_.fire(ev.site);
  ++counters_.trials;
  ++counters_.steps;

  // The fired pair left the queue: if still enabled in the new state it
  // needs a fresh draw.
  sync_pair(ev.type, ev.site, rt.enabled(config_, ev.site));

  // Record the visits while prefetching each pair's index entry, then sync
  // the pairs in visit order: VSSM's two passes (dmc/vssm.cpp), exact for
  // the same reason, and the draws keep their order.
  visits_.clear();
  rechecker_.after_fire(config_, rt, ev.site, old_species,
                        [&](ReactionIndex i, SiteIndex anchor, bool now) {
                          __builtin_prefetch(slot_.data() + pair_index(i, anchor));
                          visits_.push_back({i, anchor, now});
                        });
  for (const RecheckVisit& v : visits_) sync_pair(v.type, v.anchor, v.now);
}

void FrmSimulator::mc_step() {
  // Empty queue: absorbing state; advance_to() handles time.
  if (!queue_.empty()) execute_head();
}

void FrmSimulator::advance_to(double t) {
  // Events have absolute firing times, so the head beyond t simply stays
  // scheduled; the state AT t is exact.
  while (time_ < t && !queue_.empty() && queue_.front().when <= t) execute_head();
  time_ = std::max(time_, t);
}

void FrmSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("frm");
  rng_.save(w);
  w.u64(queue_.size());
  for (const Event& ev : queue_) {
    w.f64(ev.when);
    w.u64(ev.site);
    w.u64(ev.type);
  }
}

void FrmSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("frm");
  rng_.restore(r);
  const std::uint64_t nq = r.u64();
  if (nq > static_cast<std::uint64_t>(r.remaining()) / 24) {
    throw StateFormatError("frm queue length " + std::to_string(nq) +
                           " exceeds remaining stream");
  }
  // A fresh index, written only at the queued pairs: a resumed run touches
  // the pages the saved run's queue touches, no more.
  queue_.clear();
  queue_.reserve(static_cast<std::size_t>(nq));
  slot_ = DemandZeroArray<std::uint32_t>(slot_.size());
  for (std::uint64_t k = 0; k < nq; ++k) {
    Event ev;
    ev.when = r.f64();
    ev.site = r.u64_as<SiteIndex>("frm queued event site");
    ev.type = r.u64_as<ReactionIndex>("frm queued event type");
    if (ev.site >= config_.size() || ev.type >= model_.num_reactions()) {
      throw StateFormatError("frm queued event references " +
                             pair_name(ev.type, ev.site) + " out of range");
    }
    std::uint32_t& slot = slot_[pair_index(ev.type, ev.site)];
    if (slot != 0) {
      throw StateFormatError("frm queue holds " + pair_name(ev.type, ev.site) +
                             " twice, at heap slots " + std::to_string(slot - 1) +
                             " and " + std::to_string(k));
    }
    // Saved verbatim from a valid heap, so the array is restored verbatim —
    // no re-heapify, preserving pop order even among equal keys.
    queue_.push_back(ev);
    slot = static_cast<std::uint32_t>(queue_.size());
  }
  if (!std::is_heap(queue_.begin(), queue_.end())) {
    throw StateFormatError("frm queue is not a valid heap");
  }
  // Every enabled pair, and no other, must be queued.
  reject_inconsistent_restore();
}

void FrmSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  bool any = false;
  const auto issue = [&](std::string detail) {
    any = true;
    if (report.issues.size() < 64) {
      report.issues.push_back({"frm-queue", std::move(detail)});
    }
  };

  // One pass over the pairs: each index entry against recomputed
  // enabledness and against the heap entry it points at. Distinct pairs
  // that each point at their own entry, as many as the heap holds, cover
  // the heap exactly once.
  std::uint64_t indexed = 0;
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    const ReactionType& rt = model_.reaction(i);
    for (SiteIndex s = 0; s < config_.size(); ++s) {
      const std::uint32_t slot = slot_[pair_index(i, s)];
      const bool truth = rt.enabled(config_, s);
      if (truth != (slot != 0)) {
        issue(pair_name(i, s) + ": index says " + (slot != 0 ? "enabled" : "disabled") +
              ", recompute says " + (truth ? "enabled" : "disabled"));
      } else if (slot != 0 && (slot > queue_.size() || queue_[slot - 1].type != i ||
                               queue_[slot - 1].site != s)) {
        issue(pair_name(i, s) + ": index points at heap slot " +
              std::to_string(slot - 1) + ", which does not hold it");
      }
      if (slot != 0) ++indexed;
    }
  }
  if (indexed != queue_.size()) {
    issue("queue holds " + std::to_string(queue_.size()) + " events for " +
          std::to_string(indexed) + " indexed pairs");
  }
  if (!std::is_heap(queue_.begin(), queue_.end())) issue("queue is not in heap order");

  if (any && repair) {
    // Rebuild from the configuration through a fresh index, so only the
    // pages of enabled pairs are written. The redraw consumes fresh
    // randomness — correct kinetics from here on, though not the
    // trajectory an uncorrupted run would have taken.
    queue_.clear();
    slot_ = DemandZeroArray<std::uint32_t>(slot_.size());
    build_queue();
  }
}

void FrmSimulator::corrupt_pair_for_test(ReactionIndex rt, SiteIndex s) {
  std::uint32_t& slot = slot_[pair_index(rt, s)];
  slot = slot == 0 ? 1 : 0;
}

}  // namespace casurf
