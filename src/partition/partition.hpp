#pragma once

#include <cstdint>
#include <vector>

#include "lattice/lattice.hpp"

namespace casurf {

using ChunkId = std::uint32_t;

/// A partition P of the lattice into disjoint chunks P_i covering Omega
/// (paper section 5). Unlike BCA blocks, a chunk may be an arbitrary —
/// typically scattered — set of sites; the whole point is to assign
/// *non-adjacent* sites to the same chunk so that reactions started inside
/// one chunk can never conflict and the chunk can be updated concurrently.
class Partition {
 public:
  /// `chunk_of_site[i]` is the chunk of site i; values must be a prefix
  /// 0..num_chunks-1 with every chunk non-empty.
  Partition(Lattice lattice, std::vector<ChunkId> chunk_of_site);

  [[nodiscard]] const Lattice& lattice() const { return lattice_; }
  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }
  [[nodiscard]] ChunkId chunk_of(SiteIndex s) const { return chunk_of_site_[s]; }
  /// chunk_of(s) of every site, in row-major order.
  [[nodiscard]] const std::vector<ChunkId>& chunk_of_sites() const {
    return chunk_of_site_;
  }
  [[nodiscard]] const std::vector<SiteIndex>& chunk(ChunkId c) const {
    return chunks_.at(c);
  }
  [[nodiscard]] SiteIndex size() const { return lattice_.size(); }

  /// Size of the largest chunk; bounds the per-step parallel width.
  [[nodiscard]] std::size_t max_chunk_size() const;

  /// |P| = 1: the whole lattice in one chunk (PNDCA degenerates to a
  /// sequential sweep; with random site selection, to RSM).
  static Partition single_chunk(Lattice lattice);

  /// |P| = N: one site per chunk (PNDCA with random chunk selection is
  /// exactly RSM — paper section 5).
  static Partition singletons(Lattice lattice);

  /// Linear-form coloring: chunk(x, y) = (a x + b y) mod m. The paper's
  /// optimal five-chunk von Neumann partition (Fig 4) is (x + 3y) mod 5.
  /// Requires a*width % m == 0 and b*height % m == 0 so the form is
  /// consistent across the periodic seam; throws otherwise.
  static Partition linear_form(Lattice lattice, std::int32_t a, std::int32_t b,
                               std::int32_t m);

  /// Rectangular blocks of `bw` x `bh` sites, origin shifted by `shift`
  /// (periodic): the classic Block-CA partition (paper Fig 3). Block sizes
  /// must divide the lattice dimensions.
  static Partition blocks(Lattice lattice, std::int32_t bw, std::int32_t bh,
                          Vec2 shift = {0, 0});

 private:
  Lattice lattice_;
  std::vector<ChunkId> chunk_of_site_;
  std::vector<std::vector<SiteIndex>> chunks_;
};

}  // namespace casurf
