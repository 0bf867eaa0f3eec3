// Ablation for the paper's section-4 remark (citing Vichniac) that CA
// updating "gives degenerate results for some systems (Ising models, ...)":
// fully synchronous heat-bath Ising dynamics stabilizes a blinking
// checkerboard that the true Gibbs dynamics melts instantly — the
// degeneracy that motivates *partitioned* (conflict-free, but not fully
// synchronous) updating.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "ca/pndca.hpp"
#include "ca/synchronous_ca.hpp"
#include "dmc/rsm.hpp"
#include "models/ising.hpp"
#include "partition/coloring.hpp"

using namespace casurf;
using models::IsingModel;

namespace {

Configuration checkerboard(const IsingModel& ising, std::int32_t side) {
  Configuration cfg(Lattice(side, side), 2, ising.down);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    const Vec2 p = cfg.lattice().coord(s);
    if ((p.x + p.y) % 2 == 0) cfg.set(s, ising.up);
  }
  return cfg;
}

}  // namespace

int main() {
  bench::header("Ablation — synchronous-CA degeneracy on the Ising model (sec. 4)");

  const bool fast = bench::fast_mode();
  const std::int32_t side = 32;
  const int steps = fast ? 40 : 200;
  const double beta = 1.0;  // deep in the ordered phase
  const IsingModel ising = models::make_ising(beta);

  std::printf("2-D Ising, beta J = %.1f, %d x %d, start: perfect checkerboard\n",
              beta, side, side);
  std::printf("(every flip releases 8J, so correct kinetics must melt it)\n\n");
  std::printf("%-8s %-22s %-22s %-22s\n", "step", "RSM |m_stag|",
              "PNDCA(5) |m_stag|", "synchronous CA |m_stag|");

  RsmSimulator rsm(ising.model, checkerboard(ising, side), 1);
  const Partition part = make_partition(Lattice(side, side), ising.model);
  PndcaSimulator pndca(ising.model, checkerboard(ising, side), {part}, 2);
  SynchronousCA sync(checkerboard(ising, side), models::heat_bath_rule(ising, 3));

  for (int step = 0; step <= steps; ++step) {
    if (step % (steps / 10) == 0) {
      std::printf("%-8d %-22.3f %-22.3f %-22.3f\n", step,
                  std::abs(ising.staggered_magnetization(rsm.configuration())),
                  std::abs(ising.staggered_magnetization(pndca.configuration())),
                  std::abs(ising.staggered_magnetization(sync.configuration())));
    }
    rsm.mc_step();
    pndca.mc_step();
    sync.step();
  }

  std::printf("\nfinal magnetization     : RSM %+.3f, PNDCA %+.3f, sync CA %+.3f\n",
              ising.magnetization(rsm.configuration()),
              ising.magnetization(pndca.configuration()),
              ising.magnetization(sync.configuration()));
  std::printf("final energy per site/J : RSM %+.3f, PNDCA %+.3f, sync CA %+.3f "
              "(ground state -2)\n",
              ising.energy_per_site(rsm.configuration()),
              ising.energy_per_site(pndca.configuration()),
              ising.energy_per_site(sync.configuration()));

  std::printf("\nShape check: RSM and the *partitioned* CA melt the checkerboard\n");
  std::printf("and order ferromagnetically; the fully synchronous CA blinks at\n");
  std::printf("|m_stag| ~ 1 forever — Vichniac's degeneracy, and the reason the\n");
  std::printf("paper replaces synchronous updates with conflict-free partitions.\n");
  return 0;
}
