// Reproduces Fig 3 of the paper: a one-dimensional Block CA with 3-site
// blocks and the rule "a site becomes 0 when a neighbor in its own block is
// 0", with the block boundaries shifting between steps.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ca/synchronous_ca.hpp"

using namespace casurf;

namespace {

void print_state(const SynchronousCA& ca, const char* note) {
  std::printf("  ");
  for (SiteIndex s = 0; s < ca.configuration().size(); ++s) {
    std::printf("%d ", ca.configuration().get(s));
  }
  std::printf("   %s\n", note);
}

}  // namespace

int main() {
  bench::header("Fig 3 — 1-D Block CA, blocks of three sites, shifting edges");

  const Lattice lat(9, 1);
  Configuration cfg(lat, 2, 0);
  const std::vector<Species> initial = {0, 1, 1, 1, 1, 1, 0, 1, 1};
  for (std::int32_t x = 0; x < 9; ++x) cfg.set(Vec2{x, 0}, initial[x]);

  SynchronousCA ca(std::move(cfg),
                   fig3_zero_spreads_rule({Partition::blocks(lat, 3, 1),
                                           Partition::blocks(lat, 3, 1, {1, 0})}));

  std::printf("  sites 0..8; blocks {0,1,2}{3,4,5}{6,7,8}, then {1,2,3}{4,5,6}{7,8,0}\n\n");
  print_state(ca, "initial   (paper row 1)");
  ca.step();
  print_state(ca, "after blocks [012][345][678]  (paper row 2: 0 0 1 1 1 1 0 0 1)");
  ca.step();
  print_state(ca, "after shifted blocks [123][456][780]");
  ca.step();
  print_state(ca, "step 3");
  ca.step();
  print_state(ca, "step 4 (zeros spread across the moving block edges)");
  return 0;
}
