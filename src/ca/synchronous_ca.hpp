#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lattice/configuration.hpp"
#include "partition/partition.hpp"

namespace casurf {

/// Local transition rule of a synchronous CA: the new species of site `s`
/// at step `step` (0 for the first) as a function of the previous
/// configuration (read-only). Must only inspect a bounded neighborhood for
/// the automaton to be meaningful, but that is not enforced. The step index
/// is how a rule cycles through block phases or keys a counter draw.
using CaRule =
    std::function<Species(const Configuration& prev, SiteIndex s, std::uint64_t step)>;

/// A synchronous Cellular Automaton (paper section 1): all sites update
/// simultaneously; the state at step t+1 depends on the neighborhood states
/// at step t. Double-buffered, so the rule always reads a consistent
/// snapshot. The paper's standard CA, its block CA (Fig 3) and the
/// synchronous heat-bath Ising it cites from Vichniac (section 4,
/// models::heat_bath_rule) differ only in the rule: the
/// inherently-parallel-but-conflicted model the partitioned algorithms
/// improve on.
class SynchronousCA {
 public:
  SynchronousCA(Configuration initial, CaRule rule);

  void step();
  void run(std::uint64_t steps);

  [[nodiscard]] const Configuration& configuration() const { return current_; }
  [[nodiscard]] std::uint64_t steps_done() const { return steps_; }

 private:
  Configuration current_;
  Configuration next_;
  CaRule rule_;
  std::uint64_t steps_ = 0;
};

/// The block CA of the paper's Fig 3 (1-D): a site becomes 0 when at least
/// one of its two lattice neighbors *within the same block* is 0, otherwise
/// it keeps its state (species 0 plays "0", species 1 plays "1"). Step t
/// applies the block partition phases[t mod phases.size()], so consecutive
/// steps move the block edges (Margolus-style alternation), and every block
/// updates independently of the others — the defining property of a BCA
/// ("a step is applied at the same time and independently to each block").
/// Throws std::invalid_argument on an empty phase list, and from the rule
/// when a configuration is not on the phases' lattice.
[[nodiscard]] CaRule fig3_zero_spreads_rule(std::vector<Partition> phases);

}  // namespace casurf
