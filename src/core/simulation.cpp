#include "core/simulation.hpp"

#include <stdexcept>
#include <utility>

#include "dmc/frm.hpp"
#include "dmc/rsm.hpp"
#include "dmc/vssm.hpp"
#include "partition/coloring.hpp"
#include "partition/type_partition.hpp"

namespace casurf {

std::unique_ptr<Simulator> make_simulator(const ReactionModel& model,
                                          Configuration initial,
                                          const SimulationOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kRsm:
      return std::make_unique<RsmSimulator>(model, std::move(initial), options.seed);
    case Algorithm::kVssm:
      return std::make_unique<VssmSimulator>(model, std::move(initial), options.seed);
    case Algorithm::kFrm:
      return std::make_unique<FrmSimulator>(model, std::move(initial), options.seed);
    case Algorithm::kNdca:
      return std::make_unique<NdcaSimulator>(model, std::move(initial), options.seed);
    case Algorithm::kPndca:
    case Algorithm::kParallelPndca: {
      Partition p = make_partition(initial.lattice(), model);
      return std::make_unique<PndcaSimulator>(
          model, std::move(initial), std::vector<Partition>{std::move(p)}, options.seed,
          ChunkPolicy::kRandomOrder, TimeMode::kStochastic, options.threads);
    }
    case Algorithm::kLPndca: {
      Partition p = make_partition(initial.lattice(), model);
      return std::make_unique<LPndcaSimulator>(model, std::move(initial), std::move(p),
                                               options.seed, options.l_trials);
    }
    case Algorithm::kTPndca: {
      auto subsets = make_type_partition(initial.lattice(), model);
      return std::make_unique<TPndcaSimulator>(model, std::move(initial),
                                               std::move(subsets), options.seed);
    }
  }
  throw std::logic_error("make_simulator: unknown algorithm");
}

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kRsm: return "RSM";
    case Algorithm::kVssm: return "VSSM";
    case Algorithm::kFrm: return "FRM";
    case Algorithm::kNdca: return "NDCA";
    case Algorithm::kPndca: return "PNDCA";
    case Algorithm::kLPndca: return "L-PNDCA";
    case Algorithm::kTPndca: return "TPNDCA";
    case Algorithm::kParallelPndca: return "PNDCA(threads)";
  }
  return "?";
}

std::optional<Algorithm> algorithm_from_key(std::string_view key) {
  static constexpr std::pair<std::string_view, Algorithm> kKeys[] = {
      {"rsm", Algorithm::kRsm},       {"vssm", Algorithm::kVssm},
      {"frm", Algorithm::kFrm},       {"ndca", Algorithm::kNdca},
      {"pndca", Algorithm::kPndca},   {"lpndca", Algorithm::kLPndca},
      {"tpndca", Algorithm::kTPndca}, {"parallel", Algorithm::kParallelPndca}};
  for (const auto& [name, algorithm] : kKeys) {
    if (name == key) return algorithm;
  }
  return std::nullopt;
}

bool has_threaded_path(Algorithm a) {
  return a == Algorithm::kPndca || a == Algorithm::kParallelPndca;
}

}  // namespace casurf
