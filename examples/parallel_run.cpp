// Parallel execution walkthrough: the same PNDCA trajectory on 1..4
// threads (bit-identical by construction), the partition that makes it
// race-free, and the projected speedup on a real multiprocessor from the
// calibrated machine model.

#include <chrono>
#include <cstdio>

#include "ca/pndca.hpp"
#include "models/zgb.hpp"
#include "parallel/simulated_machine.hpp"
#include "partition/coloring.hpp"

using namespace casurf;

int main() {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(100, 100);
  const Partition partition = make_partition(lat, zgb.model);

  std::printf("ZGB on %d x %d; partition: %zu conflict-free chunks of <= %zu sites\n\n",
              lat.width(), lat.height(), partition.num_chunks(),
              partition.max_chunk_size());

  // --- Determinism: threads are a performance knob of one PNDCA sweep.
  std::printf("Running 20 MC steps on 1..4 threads (same seed):\n");
  std::uint64_t reference_hash = 0;
  for (const unsigned threads : {1u, 2u, 4u}) {
    PndcaSimulator engine(zgb.model, Configuration(lat, 3, zgb.vacant), {partition}, 42,
                          ChunkPolicy::kRandomOrder, TimeMode::kStochastic, threads);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) engine.mc_step();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0).count();
    // Cheap state fingerprint.
    std::uint64_t h = 1469598103934665603ULL;
    for (const Species s : engine.configuration().raw()) {
      h = (h ^ s) * 1099511628211ULL;
    }
    if (threads == 1) reference_hash = h;
    std::printf("  threads=%u  wall=%.3fs  state hash %016llx  %s\n", threads, wall,
                static_cast<unsigned long long>(h),
                h == reference_hash ? "(identical trajectory)" : "(MISMATCH!)");
  }

  // --- Projection: what this buys on a real multiprocessor.
  PndcaSimulator cal(zgb.model, Configuration(lat, 3, zgb.vacant), {partition}, 1);
  const MachineParams params = SimulatedMachine::calibrate(cal, 5);
  const SimulatedMachine machine(params);
  std::printf("\nProjected speedup (calibrated t_site = %.0f ns, 2003-era cluster "
              "sync costs):\n  p:        ", params.t_site_seconds * 1e9);
  for (int p = 2; p <= 10; p += 2) std::printf("%6d", p);
  std::printf("\n  N=100:    ");
  for (int p = 2; p <= 10; p += 2) {
    std::printf("%6.2f", machine.predict(partition, p, 1).speedup());
  }
  const Partition big = Partition::linear_form(Lattice(1000, 1000), 1, 3, 5);
  std::printf("\n  N=1000:   ");
  for (int p = 2; p <= 10; p += 2) {
    std::printf("%6.2f", machine.predict(big, p, 1).speedup());
  }
  std::printf("\n\nBigger lattices amortize the per-sweep barrier: the paper's Fig 7.\n");
  return 0;
}
