#include "stats/ensemble.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace casurf {

double EnsembleResult::stderr_at(std::size_t i) const {
  if (runs < 2) return 0;
  return stddev.value(i) / std::sqrt(static_cast<double>(runs));
}

EnsembleResult run_ensemble(
    const std::function<std::unique_ptr<Simulator>(std::uint64_t seed)>& factory,
    const std::function<double(const Simulator&)>& observable, std::size_t runs,
    double t_end, double dt, unsigned threads, std::uint64_t base_seed) {
  if (!factory || !observable) {
    throw std::invalid_argument("run_ensemble: null factory or observable");
  }
  if (runs == 0 || !(dt > 0) || !(t_end >= 0)) {
    throw std::invalid_argument("run_ensemble: need runs > 0, dt > 0, t_end >= 0");
  }

  const std::size_t points = static_cast<std::size_t>(t_end / dt) + 1;
  // samples[replica * points + grid_point]
  std::vector<double> samples(runs * points, 0.0);

  ThreadPool pool(threads);
  pool.parallel_for(runs, [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      auto sim = factory(base_seed + r);
      for (std::size_t g = 0; g < points; ++g) {
        sim->advance_to(static_cast<double>(g) * dt);
        samples[r * points + g] = observable(*sim);
      }
    }
  });

  EnsembleResult result;
  result.runs = runs;
  for (std::size_t g = 0; g < points; ++g) {
    double sum = 0;
    for (std::size_t r = 0; r < runs; ++r) sum += samples[r * points + g];
    const double mean = sum / static_cast<double>(runs);
    double var = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      const double d = samples[r * points + g] - mean;
      var += d * d;
    }
    const double sd = runs > 1 ? std::sqrt(var / static_cast<double>(runs - 1)) : 0.0;
    const double t = static_cast<double>(g) * dt;
    result.mean.append(t, mean);
    result.stddev.append(t, sd);
  }
  return result;
}

}  // namespace casurf
