#include "dmc/vssm.hpp"

#include "rng/distributions.hpp"

namespace casurf {

VssmSimulator::VssmSimulator(const ReactionModel& model, Configuration config,
                             std::uint64_t seed)
    : Simulator(model, std::move(config)),
      rng_(seed),
      rechecker_(model, config_.lattice()) {
  visits_.reserve(max_recheck_visits(model));
  enabled_.reserve(model.num_reactions());
  for (std::size_t i = 0; i < model.num_reactions(); ++i) {
    enabled_.emplace_back(config_.size());
  }
  rebuild_enabled();
}

void VssmSimulator::rebuild_enabled() {
  // Each type's set in raster order, the layout the checkpoints carry.
  const SpeciesBitplanes planes(config_);
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    rechecker_.probes().for_each_enabled(planes, i,
                                         [&](SiteIndex s) { enabled_[i].insert(s); });
  }
}

double VssmSimulator::total_enabled_rate() const {
  const obs::ScopedPhase phase(rate_scan_phase_, time_, counters_.steps);
  bands_.resize(model_.num_reactions());
  double r = 0;
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    bands_[i] = r += model_.reaction(i).rate() * static_cast<double>(enabled_[i].size());
  }
  return r;
}

void VssmSimulator::mc_step() {
  const obs::ScopedPhase phase(step_phase_, time_, counters_.steps);
  const double total = total_enabled_rate();
  if (total <= 0.0) return;  // absorbing state; advance_to() handles time

  // Time to next event, then the event itself.
  time_ += exponential(rng_, total);
  execute_event();
}

void VssmSimulator::execute_event() {
  // Type with probability proportional to k_i |E_i|, from the bands of the
  // total_enabled_rate() scan that drew the waiting time (never an empty
  // band), and the anchor uniform within the type's set.
  const auto chosen =
      static_cast<ReactionIndex>(sample_cumulative(bands_, uniform01(rng_)));
  const EnabledSet& set = enabled_[chosen];
  const SiteIndex s = set.at(static_cast<std::size_t>(uniform_below(rng_, set.size())));

  const ReactionType& rt = model_.reaction(chosen);
  const Species* old_species = rechecker_.execute(config_, rt, s);
  record_execution(chosen);
  // Event-driven selection never rejects: every attempt fires.
  spatial_.attempt(s);
  spatial_.fire(s);
  last_event_ = Event{time_, chosen, s};
  ++counters_.trials;
  ++counters_.steps;

  // Two passes: record every visit and start loading the index entry it
  // will update, then apply the visits in visit order, so the entries'
  // cache misses overlap instead of each update waiting on its own. The
  // deferral is exact: a visit's enabledness reads only the configuration,
  // which no set update writes.
  visits_.clear();
  rechecker_.after_fire(config_, rt, s, old_species,
                        [&](ReactionIndex i, SiteIndex anchor, bool now) {
                          enabled_[i].prefetch(anchor);
                          visits_.push_back({i, anchor, now});
                        });
  for (const RecheckVisit& v : visits_) enabled_[v.type].assign(v.anchor, v.now);
}

void VssmSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("vssm");
  rng_.save(w);
  for (const EnabledSet& set : enabled_) w.vec_u64(set.items());
  w.f64(last_event_.time);
  w.u64(last_event_.type);
  w.u64(last_event_.site);
}

void VssmSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("vssm");
  rng_.restore(r);
  for (ReactionIndex i = 0; i < model_.num_reactions(); ++i) {
    const auto items = r.vec_u64<SiteIndex>(SIZE_MAX, "enabled set");
    enabled_[i].clear();
    for (const SiteIndex s : items) {
      if (s >= config_.size()) {
        throw StateFormatError("enabled-set site " + std::to_string(s) +
                               " out of range");
      }
      enabled_[i].insert(s);
    }
    if (enabled_[i].size() != items.size()) {
      throw StateFormatError("enabled set for reaction " + std::to_string(i) +
                             " contains duplicates");
    }
  }
  last_event_.time = r.f64();
  last_event_.type = r.u64_as<ReactionIndex>("vssm last event type");
  last_event_.site = r.u64_as<SiteIndex>("vssm last event site");
  // Membership must agree with the restored configuration; a checkpoint
  // whose sets disagree with its own lattice state is corrupt.
  reject_inconsistent_restore();
}

void VssmSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  bool any = false;
  for (ReactionIndex i = 0; i < model_.num_reactions() && report.issues.size() < 64; ++i) {
    const ReactionType& rt = model_.reaction(i);
    for (SiteIndex s = 0; s < config_.size(); ++s) {
      const bool truth = rt.enabled(config_, s);
      const bool cached = enabled_[i].contains(s);
      if (truth == cached) continue;
      any = true;
      report.issues.push_back(
          {"vssm-enabled", "reaction " + std::to_string(i) + " at site " +
                               std::to_string(s) + ": cache says " +
                               (cached ? "enabled" : "disabled") + ", recompute says " +
                               (truth ? "enabled" : "disabled")});
      if (report.issues.size() >= 64) break;  // cap the diff report
    }
  }
  if (any && repair) {
    for (EnabledSet& set : enabled_) set.clear();
    rebuild_enabled();
  }
}

void VssmSimulator::advance_to(double t) {
  // Unlike the default implementation, never executes an event whose
  // firing time lies beyond t: by memorylessness, conditioning on "no
  // event in [time, t]" simply restarts the clock at t, so discarding the
  // overshooting draw gives the exact distribution of the state AT t.
  while (time_ < t) {
    // The extent of mc_step's: the scan, the draw and the event.
    const obs::ScopedPhase phase(step_phase_, time_, counters_.steps);
    const double total = total_enabled_rate();
    if (total <= 0.0) {
      time_ = t;
      return;
    }
    const double dt = exponential(rng_, total);
    if (time_ + dt > t) {
      time_ = t;
      return;
    }
    time_ += dt;
    execute_event();
  }
}

}  // namespace casurf
