#pragma once

// Per-site references for the partition suites: verification and greedy
// coloring one site and one Lattice::neighbor call at a time, and the
// partition make_partition selected with them before it learned to skip
// the greedy search. The library's row-wise versions must agree with
// these exactly.

#include <optional>
#include <vector>

#include "partition/coloring.hpp"

namespace casurf::reference {

/// For every site s and offset d, s and s + d (periodic) lie in different
/// chunks unless they are the same site.
inline bool verify(const Partition& p, const std::vector<Vec2>& offsets) {
  const Lattice& lat = p.lattice();
  for (SiteIndex s = 0; s < lat.size(); ++s) {
    for (const Vec2 d : offsets) {
      const SiteIndex t = lat.neighbor(s, d);
      if (t != s && p.chunk_of(s) == p.chunk_of(t)) return false;
    }
  }
  return true;
}

/// Raster-order greedy coloring: each site takes the smallest chunk id no
/// already-colored site at a conflict offset holds, then ids are compacted.
inline Partition greedy(const Lattice& lattice, const std::vector<Vec2>& offsets) {
  constexpr ChunkId kUnassigned = static_cast<ChunkId>(-1);
  std::vector<ChunkId> assign(lattice.size(), kUnassigned);
  for (SiteIndex s = 0; s < lattice.size(); ++s) {
    std::vector<char> used(offsets.size() + 1, 0);
    for (const Vec2 d : offsets) {
      const ChunkId c = assign[lattice.neighbor(s, d)];
      if (c != kUnassigned && c < used.size()) used[c] = 1;
    }
    ChunkId pick = 0;
    while (pick < used.size() && used[pick]) ++pick;
    assign[s] = pick;
  }
  std::vector<char> seen(offsets.size() + 2, 0);
  for (const ChunkId c : assign) seen[c] = 1;
  std::vector<ChunkId> remap(seen.size(), 0);
  ChunkId next = 0;
  for (std::size_t c = 0; c < seen.size(); ++c) {
    if (seen[c]) remap[c] = next++;
  }
  for (ChunkId& c : assign) c = remap[c];
  return Partition(lattice, std::move(assign));
}

/// Greedy, verify both, and keep the linear form when it is no larger.
inline Partition make_partition(const Lattice& lattice, const std::vector<Vec2>& offsets) {
  Partition g = greedy(lattice, offsets);
  if (const std::optional<LinearForm> form = find_linear_form(lattice, offsets)) {
    Partition p = Partition::linear_form(lattice, form->a, form->b, form->m);
    if (verify(p, offsets) && p.num_chunks() <= g.num_chunks()) return p;
  }
  return g;
}

}  // namespace casurf::reference
