#pragma once

#include <optional>

#include "partition/conflict.hpp"
#include "partition/partition.hpp"

namespace casurf {

/// A translation-invariant lattice coloring chunk(x,y) = (a x + b y) mod m.
struct LinearForm {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t m = 1;
};

/// Search for the linear form with the fewest chunks m that separates all
/// conflict offsets: (a dx + b dy) % m != 0 for every d in `offsets`, and
/// that is consistent with the periodic lattice (m | a*W and m | b*H).
/// For von Neumann 2-site patterns this finds m = 5 — the paper's optimal
/// five-chunk partition of Fig 4. Returns nullopt if no form with
/// m <= max_m exists (then fall back to greedy_coloring).
[[nodiscard]] std::optional<LinearForm> find_linear_form(
    const Lattice& lattice, const std::vector<Vec2>& offsets, std::int32_t max_m = 64);

/// Sequential greedy coloring of the conflict graph in raster order: each
/// site takes the smallest chunk id not used by any already-colored site at
/// a conflict offset. Because the offset set is symmetric, the second site
/// of every conflicting pair always sees the first, so the result is a
/// valid partition with at most (degree + 1) chunks for any lattice size.
[[nodiscard]] Partition greedy_coloring(const Lattice& lattice,
                                        const std::vector<Vec2>& offsets);

/// Best-effort minimal partition for a model. A verified linear form whose
/// m equals chunk_lower_bound (with no conflict offset wrapping to (0, 0))
/// is optimal and returned at once; otherwise greedy_coloring runs and the
/// form is kept only when it has no more chunks. The result always
/// satisfies verify_partition.
[[nodiscard]] Partition make_partition(const Lattice& lattice, const ReactionModel& model,
                                       ConflictPolicy policy = ConflictPolicy::kFullNeighborhood);

/// Lower bound on the number of chunks: 1 + size of the largest clique
/// found among {0} union offsets by greedy clique growth (not necessarily
/// tight, but exact for the von Neumann case).
[[nodiscard]] std::size_t chunk_lower_bound(const std::vector<Vec2>& offsets);

}  // namespace casurf
