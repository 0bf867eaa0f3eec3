#include "partition/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace casurf {

Partition::Partition(Lattice lattice, std::vector<ChunkId> chunk_of_site)
    : lattice_(lattice), chunk_of_site_(std::move(chunk_of_site)) {
  if (chunk_of_site_.size() != lattice_.size()) {
    throw std::invalid_argument("Partition: assignment size != lattice size");
  }
  // Counting pass: size every chunk, then fill each list in site order.
  std::vector<SiteIndex> sizes;
  for (const ChunkId c : chunk_of_site_) {
    if (c >= sizes.size()) sizes.resize(static_cast<std::size_t>(c) + 1, 0);
    ++sizes[c];
  }
  if (std::ranges::find(sizes, SiteIndex{0}) != sizes.end()) {
    throw std::invalid_argument("Partition: chunk ids must be dense (empty chunk)");
  }
  chunks_.resize(sizes.size());
  for (std::size_t c = 0; c < sizes.size(); ++c) chunks_[c].reserve(sizes[c]);
  for (SiteIndex s = 0; s < chunk_of_site_.size(); ++s) {
    chunks_[chunk_of_site_[s]].push_back(s);
  }
}

std::size_t Partition::max_chunk_size() const {
  std::size_t m = 0;
  for (const auto& c : chunks_) m = std::max(m, c.size());
  return m;
}

Partition Partition::single_chunk(Lattice lattice) {
  return Partition(lattice, std::vector<ChunkId>(lattice.size(), 0));
}

Partition Partition::singletons(Lattice lattice) {
  std::vector<ChunkId> assign(lattice.size());
  for (SiteIndex s = 0; s < lattice.size(); ++s) assign[s] = s;
  return Partition(lattice, std::move(assign));
}

Partition Partition::linear_form(Lattice lattice, std::int32_t a, std::int32_t b,
                                 std::int32_t m) {
  if (m <= 0) throw std::invalid_argument("Partition::linear_form: m must be positive");
  // 64-bit products: a * width overflows 32 bits on wide lattices.
  const auto mod = [m](std::int64_t v) {
    const std::int64_t r = v % m;
    return r < 0 ? r + m : r;
  };
  if (mod(std::int64_t{a} * lattice.width()) != 0 ||
      mod(std::int64_t{b} * lattice.height()) != 0) {
    throw std::invalid_argument(
        "Partition::linear_form: form is inconsistent across the periodic seam "
        "(need a*W and b*H divisible by m)");
  }
  // (a x + b y) mod m along each row, stepping x by one add and one
  // conditional subtract.
  const std::int64_t step = mod(a);
  std::vector<ChunkId> assign(lattice.size());
  SiteIndex s = 0;
  for (std::int32_t y = 0; y < lattice.height(); ++y) {
    std::int64_t v = mod(std::int64_t{b} * y);
    for (std::int32_t x = 0; x < lattice.width(); ++x, ++s) {
      assign[s] = static_cast<ChunkId>(v);
      v += step;
      if (v >= m) v -= m;
    }
  }
  return Partition(lattice, std::move(assign));
}

Partition Partition::blocks(Lattice lattice, std::int32_t bw, std::int32_t bh,
                            Vec2 shift) {
  if (bw <= 0 || bh <= 0 || lattice.width() % bw != 0 || lattice.height() % bh != 0) {
    throw std::invalid_argument("Partition::blocks: block size must divide lattice size");
  }
  const std::int32_t nx = lattice.width() / bw;
  std::vector<ChunkId> assign(lattice.size());
  for (std::int32_t y = 0; y < lattice.height(); ++y) {
    for (std::int32_t x = 0; x < lattice.width(); ++x) {
      // Shift the block origin, not the site: site p belongs to the block
      // containing p - shift on the unshifted grid.
      const Vec2 q = lattice.wrap(Vec2{x, y} - shift);
      const ChunkId c = static_cast<ChunkId>((q.y / bh) * nx + (q.x / bw));
      assign[lattice.index({x, y})] = c;
    }
  }
  return Partition(lattice, std::move(assign));
}

}  // namespace casurf
