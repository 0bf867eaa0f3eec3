#include "core/simulation.hpp"

#include <stdexcept>

#include "dmc/frm.hpp"
#include "dmc/rsm.hpp"
#include "dmc/vssm.hpp"
#include "parallel/parallel_pndca.hpp"
#include "partition/coloring.hpp"
#include "partition/type_partition.hpp"

namespace casurf {

namespace {

Partition partition_for(const ReactionModel& model, const Configuration& cfg,
                        const SimulationOptions& options) {
  if (options.partition) {
    if (!(options.partition->lattice() == cfg.lattice())) {
      throw std::invalid_argument("make_simulator: supplied partition has wrong lattice");
    }
    return *options.partition;
  }
  return make_partition(cfg.lattice(), model, options.conflict_policy);
}

}  // namespace

std::unique_ptr<Simulator> make_simulator(const ReactionModel& model,
                                          Configuration initial,
                                          const SimulationOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kRsm:
      return std::make_unique<RsmSimulator>(model, std::move(initial), options.seed,
                                            options.time_mode);
    case Algorithm::kVssm:
      return std::make_unique<VssmSimulator>(model, std::move(initial), options.seed);
    case Algorithm::kFrm:
      return std::make_unique<FrmSimulator>(model, std::move(initial), options.seed);
    case Algorithm::kNdca:
      return std::make_unique<NdcaSimulator>(model, std::move(initial), options.seed,
                                             options.time_mode);
    case Algorithm::kPndca: {
      Partition p = partition_for(model, initial, options);
      return std::make_unique<PndcaSimulator>(model, std::move(initial),
                                              std::vector<Partition>{std::move(p)},
                                              options.seed, options.chunk_policy,
                                              options.time_mode);
    }
    case Algorithm::kLPndca: {
      Partition p = partition_for(model, initial, options);
      return std::make_unique<LPndcaSimulator>(model, std::move(initial), std::move(p),
                                               options.seed, options.l_trials,
                                               options.time_mode);
    }
    case Algorithm::kTPndca: {
      auto subsets = make_type_partition(initial.lattice(), model);
      return std::make_unique<TPndcaSimulator>(model, std::move(initial),
                                               std::move(subsets), options.seed,
                                               options.tpndca_sweeps);
    }
    case Algorithm::kParallelPndca: {
      Partition p = partition_for(model, initial, options);
      return std::make_unique<ParallelPndcaEngine>(
          model, std::move(initial), std::vector<Partition>{std::move(p)}, options.seed,
          options.threads, options.chunk_policy, options.time_mode);
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

}  // namespace casurf
