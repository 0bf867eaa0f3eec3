#include "partition/conflict.hpp"

#include <algorithm>
#include <unordered_set>

#include "partition/partition.hpp"

namespace casurf {

namespace {

/// Offsets a type writes (target != keep) and all offsets it touches.
struct TypeFootprint {
  std::vector<Vec2> reads;   // full neighborhood
  std::vector<Vec2> writes;  // written subset
};

TypeFootprint footprint(const ReactionType& rt) {
  TypeFootprint f;
  for (const Transform& t : rt.transforms()) {
    f.reads.push_back(t.offset);
    if (t.tg != kKeep) f.writes.push_back(t.offset);
  }
  return f;
}

void accumulate_differences(const std::vector<Vec2>& a, const std::vector<Vec2>& b,
                            std::unordered_set<Vec2>& out) {
  for (const Vec2 u : a) {
    for (const Vec2 v : b) {
      const Vec2 d = u - v;
      if (d != Vec2{0, 0}) {
        out.insert(d);
        out.insert(-d);
      }
    }
  }
}

std::vector<Vec2> sorted(std::unordered_set<Vec2> set) {
  std::vector<Vec2> v(set.begin(), set.end());
  std::ranges::sort(v);
  return v;
}

}  // namespace

std::vector<Vec2> conflict_offsets(const ReactionModel& model, ConflictPolicy policy) {
  std::vector<TypeFootprint> fps;
  fps.reserve(model.num_reactions());
  for (const ReactionType& rt : model.reactions()) fps.push_back(footprint(rt));

  std::unordered_set<Vec2> out;
  for (const TypeFootprint& a : fps) {
    for (const TypeFootprint& b : fps) {
      if (policy == ConflictPolicy::kFullNeighborhood) {
        accumulate_differences(a.reads, b.reads, out);
      } else {
        // write/write and write/read in both orders; the symmetrisation in
        // accumulate_differences makes one order sufficient per pair kind.
        accumulate_differences(a.writes, b.writes, out);
        accumulate_differences(a.writes, b.reads, out);
      }
    }
  }
  // A reaction also conflicts with a second start of *itself* at the same
  // anchor, but identical anchors are excluded by construction (a site is
  // selected at most once per chunk sweep), so d = 0 stays excluded.
  return sorted(std::move(out));
}

std::vector<Vec2> self_conflict_offsets(const ReactionType& rt, ConflictPolicy policy) {
  const TypeFootprint f = footprint(rt);
  std::unordered_set<Vec2> out;
  if (policy == ConflictPolicy::kFullNeighborhood) {
    accumulate_differences(f.reads, f.reads, out);
  } else {
    accumulate_differences(f.writes, f.writes, out);
    accumulate_differences(f.writes, f.reads, out);
  }
  return sorted(std::move(out));
}

bool verify_partition(const Partition& p, const std::vector<Vec2>& offsets) {
  const Lattice& lat = p.lattice();
  const auto width = static_cast<std::size_t>(lat.width());
  const auto height = static_cast<std::size_t>(lat.height());
  // The offsets wrapped onto the torus. One that wraps to (0, 0) pairs each
  // site with itself, which is no conflict.
  std::vector<Vec2> wrapped;
  for (const Vec2 d : offsets) {
    const Vec2 o = lat.wrap(d);
    if (o != Vec2{0, 0}) wrapped.push_back(o);
  }
  // True when a[i] != b[i] for every i < n; a reduction without an early
  // exit, so the compiler can vectorize it.
  const auto all_differ = [](const ChunkId* a, const ChunkId* b, std::size_t n) {
    std::uint32_t same = 0;
    for (std::size_t i = 0; i < n; ++i) same |= a[i] == b[i] ? 1u : 0u;
    return same == 0;
  };
  // Every site s against s + d, a row at a time: row y meets row y + dy
  // rotated left by dx. Rows outside, offsets inside, so the few rows an
  // offset set reaches stay in cache.
  const ChunkId* chunk = p.chunk_of_sites().data();
  for (std::size_t y = 0; y < height; ++y) {
    const ChunkId* row = chunk + y * width;
    for (const Vec2 o : wrapped) {
      const auto dx = static_cast<std::size_t>(o.x);
      const auto dy = static_cast<std::size_t>(o.y);
      const ChunkId* other = chunk + (y + dy < height ? y + dy : y + dy - height) * width;
      // x < width - dx meets other[x + dx]; the last dx sites wrap to other[0, dx).
      if (!all_differ(row, other + dx, width - dx) ||
          !all_differ(row + (width - dx), other, dx)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace casurf
