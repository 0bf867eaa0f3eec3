#include "partition/coloring.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace casurf {

std::optional<LinearForm> find_linear_form(const Lattice& lattice,
                                           const std::vector<Vec2>& offsets,
                                           std::int32_t max_m) {
  if (offsets.empty()) return LinearForm{0, 0, 1};
  // 64-bit products: a * width overflows 32 bits on wide lattices.
  const auto mod = [](std::int64_t v, std::int64_t m) {
    const std::int64_t r = v % m;
    return r < 0 ? r + m : r;
  };
  for (std::int32_t m = 2; m <= max_m; ++m) {
    for (std::int32_t a = 0; a < m; ++a) {
      if (mod(std::int64_t{a} * lattice.width(), m) != 0) continue;
      for (std::int32_t b = 0; b < m; ++b) {
        if (mod(std::int64_t{b} * lattice.height(), m) != 0) continue;
        const bool ok = std::ranges::all_of(offsets, [&](Vec2 d) {
          return mod(std::int64_t{a} * d.x + std::int64_t{b} * d.y, m) != 0;
        });
        if (ok) return LinearForm{a, b, m};
      }
    }
  }
  return std::nullopt;
}

Partition greedy_coloring(const Lattice& lattice, const std::vector<Vec2>& offsets) {
  constexpr ChunkId kUnassigned = static_cast<ChunkId>(-1);
  // Offsets wrapped once into [0, width) x [0, height), so a neighbour's
  // coordinates take one conditional subtract per axis. Unsigned: x + dx
  // stays below 2 * width, which may exceed INT32_MAX.
  const auto width = static_cast<std::uint32_t>(lattice.width());
  const auto height = static_cast<std::uint32_t>(lattice.height());
  std::vector<Vec2> wrapped;
  wrapped.reserve(offsets.size());
  for (const Vec2 d : offsets) wrapped.push_back(lattice.wrap(d));
  std::vector<ChunkId> assign(lattice.size(), kUnassigned);
  std::vector<char> used;
  SiteIndex s = 0;
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x, ++s) {
      used.assign(offsets.size() + 1, 0);
      for (const Vec2 o : wrapped) {
        std::uint32_t nx = x + static_cast<std::uint32_t>(o.x);
        if (nx >= width) nx -= width;
        std::uint32_t ny = y + static_cast<std::uint32_t>(o.y);
        if (ny >= height) ny -= height;
        const ChunkId c = assign[static_cast<SiteIndex>(ny) * width + nx];
        if (c != kUnassigned && c < used.size()) used[c] = 1;
      }
      ChunkId pick = 0;
      while (pick < used.size() && used[pick]) ++pick;
      assign[s] = pick;
    }
  }
  // Chunk ids are dense by construction of "smallest free", but a hole can
  // appear in pathological cases; compact defensively.
  std::vector<ChunkId> remap;
  {
    std::vector<char> seen(offsets.size() + 2, 0);
    for (const ChunkId c : assign) seen[c] = 1;
    remap.resize(seen.size(), 0);
    ChunkId next = 0;
    for (std::size_t c = 0; c < seen.size(); ++c) {
      if (seen[c]) remap[c] = next++;
    }
  }
  for (ChunkId& c : assign) c = remap[c];
  return Partition(lattice, std::move(assign));
}

Partition make_partition(const Lattice& lattice, const ReactionModel& model,
                         ConflictPolicy policy) {
  const std::vector<Vec2> offsets = conflict_offsets(model, policy);
  std::optional<Partition> linear;
  if (const auto form = find_linear_form(lattice, offsets)) {
    Partition p = Partition::linear_form(lattice, form->a, form->b, form->m);
    if (verify_partition(p, offsets)) linear = std::move(p);
  }
  // The clique behind chunk_lower_bound is a set of pairwise-conflicting
  // anchors. When no conflict offset wraps to (0, 0), its sites on the
  // torus are distinct, so every valid partition needs at least that many
  // chunks: a form that reaches the bound is optimal, greedy cannot beat
  // it, and the search is skipped.
  const auto wraps_to_zero = [&](Vec2 d) { return lattice.wrap(d) == Vec2{0, 0}; };
  if (linear && linear->num_chunks() == chunk_lower_bound(offsets) &&
      std::ranges::none_of(offsets, wraps_to_zero)) {
    return std::move(*linear);
  }
  Partition greedy = greedy_coloring(lattice, offsets);
  if (!verify_partition(greedy, offsets)) {
    // Symmetric-offset greedy is valid by construction; reaching this means
    // the offset set was not symmetric (caller bypassed conflict_offsets).
    throw std::logic_error("make_partition: greedy coloring failed verification");
  }
  // Prefer the balanced translation-invariant coloring, but only when it is
  // actually at least as small: on awkward lattice sizes the periodic seam
  // can force the linear form to a huge modulus (e.g. m = 31 on a 31x1
  // lattice) that greedy beats easily.
  if (linear && linear->num_chunks() <= greedy.num_chunks()) return std::move(*linear);
  return greedy;
}

std::size_t chunk_lower_bound(const std::vector<Vec2>& offsets) {
  // Grow a clique around the origin: vertices are {0} union offsets, and
  // u, v are adjacent when u - v is itself a conflict offset.
  const std::unordered_set<Vec2> set(offsets.begin(), offsets.end());
  std::vector<Vec2> clique = {{0, 0}};
  for (const Vec2 cand : offsets) {
    const bool adjacent_to_all = std::ranges::all_of(clique, [&](Vec2 v) {
      return cand == v || set.contains(cand - v);
    });
    if (adjacent_to_all) clique.push_back(cand);
  }
  return clique.size();
}

}  // namespace casurf
