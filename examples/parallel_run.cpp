// Parallel execution walkthrough: the same PNDCA trajectory on 1..4
// threads (bit-identical by construction) and the partition that makes it
// race-free. bench/fig7_speedup measures what the threads buy.

#include <chrono>
#include <cstdio>

#include "ca/pndca.hpp"
#include "models/zgb.hpp"
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
  return 0;
}
