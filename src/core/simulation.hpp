#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "ca/lpndca.hpp"
#include "ca/ndca.hpp"
#include "ca/pndca.hpp"
#include "ca/tpndca.hpp"
#include "core/simulator.hpp"

namespace casurf {

/// Every simulation algorithm in the library, exact and approximate.
enum class Algorithm {
  kRsm,            ///< Random Selection Method (exact DMC, paper section 3)
  kVssm,           ///< Gillespie direct method (exact, event-driven)
  kFrm,            ///< First Reaction Method (exact, event-driven)
  kNdca,           ///< Non-deterministic CA (paper section 4)
  kPndca,          ///< Partitioned NDCA (paper section 5)
  kLPndca,         ///< L-PNDCA general structure (paper section 5)
  kTPndca,         ///< Type-partitioned PNDCA (paper section 5)
  kParallelPndca,  ///< PNDCA under its older spelling: the same simulator
};

/// One options bag for the whole family; algorithm-specific fields are
/// ignored where not applicable.
struct SimulationOptions {
  Algorithm algorithm = Algorithm::kRsm;
  std::uint64_t seed = 1;
  std::uint32_t l_trials = 1;  ///< L of L-PNDCA
  unsigned threads = 1;        ///< PNDCA's test slices (1 = no pool)
};

/// Build a ready-to-run simulator for `model` starting from `initial`.
/// The model must outlive the simulator. This is the single entry point
/// the CLI, the examples and most benchmarks use. Every simulator runs in
/// stochastic time, PNDCA in random chunk order, and the partitioned
/// family on the partition make_partition() derives from the model; the
/// simulators' constructors take the other time modes, chunk policies and
/// partitions.
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(const ReactionModel& model,
                                                        Configuration initial,
                                                        const SimulationOptions& options);

/// Human-readable name of an algorithm enumerator.
[[nodiscard]] const char* algorithm_name(Algorithm a);

/// The algorithm a command-line key names ("rsm", "vssm", "frm", "ndca",
/// "pndca", "lpndca", "tpndca" or "parallel"), or nullopt. casurf_run's
/// --algorithm and the serve JobSpec's algorithm member take these keys.
[[nodiscard]] std::optional<Algorithm> algorithm_from_key(std::string_view key);

/// Whether make_simulator honours SimulationOptions::threads for `a`; it
/// builds every other algorithm on the caller alone, and the input
/// boundaries refuse threads > 1 for them.
[[nodiscard]] bool has_threaded_path(Algorithm a);

}  // namespace casurf
