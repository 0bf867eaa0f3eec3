#include "core/simulator.hpp"

#include "obs/trace.hpp"

namespace casurf {

void Simulator::attach(const obs::Sinks& sinks) {
  sinks_ = sinks;
  if (sinks.tracer != nullptr) sinks.tracer->set_thread_name(0, "main");
  for (obs::Phase* phase : phases_) phase->attach(sinks);
  spatial_.attach(sinks.spatial);
}

void Simulator::advance_to(double t) {
  while (time_ < t) {
    const double before = time_;
    mc_step();
    if (time_ <= before) {
      // No progress is only possible in an absorbing state (every rate
      // gated off); jump to the target instead of spinning.
      time_ = t;
      break;
    }
  }
}

void Simulator::save_state(StateWriter& w) const {
  w.section("sim-core");
  w.f64(time_);
  w.u64(counters_.trials);
  w.u64(counters_.executed);
  w.u64(counters_.steps);
  w.vec_u64(counters_.executed_per_type);
  w.section("config");
  w.u64(static_cast<std::uint64_t>(config_.size()));
  w.bytes(config_.raw().data(), config_.raw().size());
}

void Simulator::restore_state(StateReader& r) {
  r.expect_section("sim-core");
  time_ = r.f64();
  counters_.trials = r.u64();
  counters_.executed = r.u64();
  counters_.steps = r.u64();
  counters_.executed_per_type =
      r.vec_u64<std::uint64_t>(model_.num_reactions(), "executed_per_type");
  r.expect_section("config");
  const std::uint64_t n = r.u64();
  if (n != static_cast<std::uint64_t>(config_.size())) {
    throw StateFormatError("configuration has " + std::to_string(n) +
                           " sites, simulator expects " + std::to_string(config_.size()));
  }
  std::vector<Species> state(static_cast<std::size_t>(n));
  r.bytes(state.data(), state.size());
  for (const Species s : state) {
    if (s >= config_.num_species()) {
      throw StateFormatError("species value " + std::to_string(int{s}) +
                             " out of domain (" + std::to_string(config_.num_species()) +
                             " species)");
    }
  }
  config_.assign(state);
}

void Simulator::reject_inconsistent_restore() {
  AuditReport report;
  audit_derived_state(report, false);
  if (!report.clean()) {
    throw StateFormatError("restored " + report.issues.front().component +
                           " state contradicts the restored lattice: " +
                           report.issues.front().detail);
  }
}

void Simulator::audit_derived_state(AuditReport& report, bool repair) {
  if (!config_.counts_consistent()) {
    report.issues.push_back(
        {"config-counts",
         "per-species site counts disagree with a recount of the raw state"});
    if (repair) config_.recount();
  }
}

}  // namespace casurf
