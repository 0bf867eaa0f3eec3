// Quickstart: simulate the ZGB CO-oxidation model (the paper's example
// system, Fig 1 / Table I) with the exact DMC method and watch the surface
// reach its reactive steady state.
//
//   build/examples/quickstart [y_CO]
//
// y_CO is the CO fraction of the impinging gas (default 0.45, inside the
// reactive window).

#include <cstdio>
#include <cstdlib>

#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "models/zgb.hpp"
#include "stats/coverage.hpp"

using namespace casurf;

int main(int argc, char** argv) {
  const double y = argc > 1 ? std::atof(argv[1]) : 0.45;
  if (!(y > 0.0 && y < 1.0)) {
    std::fprintf(stderr, "usage: quickstart [y_CO in (0,1)]\n");
    return 1;
  }

  // 1. Build the model: species domain {*, CO, O} and the seven reaction
  //    types of Table I, parameterized by the CO fraction y.
  const models::ZgbModel zgb = models::make_zgb(models::ZgbParams::from_y(y, 20.0));

  // 2. An empty 128 x 128 periodic lattice.
  Configuration surface(Lattice(128, 128), zgb.model.species().size(), zgb.vacant);

  // 3. Pick an algorithm through the facade. Algorithm::kRsm is the exact
  //    Master Equation sampler; swap in kPndca for the paper's partitioned
  //    CA, and set options.threads = 4 to test its chunks on four threads
  //    — same interface, same trajectory.
  SimulationOptions options;
  options.algorithm = Algorithm::kRsm;
  options.seed = 2026;
  auto sim = make_simulator(zgb.model, std::move(surface), options);

  // 4. Run, sampling coverages once per time unit.
  std::printf("ZGB CO oxidation, y = %.2f, %s, 128 x 128\n\n", y, sim->name().c_str());
  std::printf("%-8s %-8s %-8s %-8s\n", "time", "CO", "O", "vacant");
  CoverageRecorder recorder;
  for (double t = 0; t <= 30.0; t += 2.0) {
    sim->advance_to(t);
    recorder.sample(*sim);
    std::printf("%-8.1f %-8.3f %-8.3f %-8.3f\n", sim->time(),
                sim->configuration().coverage(zgb.co),
                sim->configuration().coverage(zgb.o),
                sim->configuration().coverage(zgb.vacant));
  }

  // 5. Counters tell you what actually happened.
  const SimCounters& c = sim->counters();
  std::printf("\n%llu trials, %llu reactions executed (acceptance %.1f%%)\n",
              static_cast<unsigned long long>(c.trials),
              static_cast<unsigned long long>(c.executed), 100 * c.acceptance());
  std::uint64_t co2 = 0;
  for (int i = 3; i < 7; ++i) co2 += c.executed_per_type[i];
  std::printf("CO2 molecules produced: %llu\n", static_cast<unsigned long long>(co2));

  // 6. A glimpse of the surface (16 x 16 corner).
  std::printf("\nSurface corner ('.' = vacant, 'c' = CO, 'o' = O):\n");
  const Configuration& cfg = sim->configuration();
  for (std::int32_t yy = 0; yy < 16; ++yy) {
    for (std::int32_t xx = 0; xx < 16; ++xx) {
      const Species s = cfg.get(Vec2{xx, yy});
      std::putchar(s == zgb.vacant ? '.' : s == zgb.co ? 'c' : 'o');
    }
    std::putchar('\n');
  }
  return 0;
}
