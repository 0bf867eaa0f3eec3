#include "ca/synchronous_ca.hpp"

#include <stdexcept>
#include <utility>

namespace casurf {

SynchronousCA::SynchronousCA(Configuration initial, CaRule rule)
    : current_(initial), next_(std::move(initial)), rule_(std::move(rule)) {
  if (!rule_) throw std::invalid_argument("SynchronousCA: null rule");
}

void SynchronousCA::step() {
  const SiteIndex n = current_.size();
  for (SiteIndex s = 0; s < n; ++s) {
    next_.set(s, rule_(current_, s, steps_));
  }
  std::swap(current_, next_);
  ++steps_;
}

void SynchronousCA::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) step();
}

CaRule fig3_zero_spreads_rule(std::vector<Partition> phases) {
  if (phases.empty()) {
    throw std::invalid_argument("fig3_zero_spreads_rule: no block phases");
  }
  return [phases = std::move(phases)](const Configuration& cfg, SiteIndex s,
                                      std::uint64_t step) -> Species {
    const Partition& phase = phases[step % phases.size()];
    const Lattice& lat = cfg.lattice();
    if (!(phase.lattice() == lat)) {
      throw std::invalid_argument("fig3_zero_spreads_rule: phase lattice mismatch");
    }
    const ChunkId block = phase.chunk_of(s);
    for (const Vec2 d : {Vec2{-1, 0}, Vec2{1, 0}}) {
      const SiteIndex nb = lat.neighbor(s, d);
      if (phase.chunk_of(nb) == block && cfg.get(nb) == 0) return 0;
    }
    return cfg.get(s);
  };
}

}  // namespace casurf
