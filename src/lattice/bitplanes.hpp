#pragma once

#include <cstdint>
#include <vector>

#include "lattice/configuration.hpp"
#include "lattice/lattice.hpp"
#include "lattice/species.hpp"

namespace casurf {

/// Structure-of-arrays view of a Configuration: one bitplane per species,
/// one bit per site, rows padded to whole 64-bit words. Where the AoS
/// `Configuration` answers "what species is at site s?", the bitplanes
/// answer "does (x, y) hold species sp?" with one load and no coordinate
/// division — what the probe plans of the shared recheck routine
/// (model/probe_plans.hpp) evaluate reaction patterns against.
///
/// The planes are a *derived* structure: they are rebuilt from the
/// configuration on construction/restore and kept in sync by resyncing
/// every written site after a reaction commits. `matches()` is the audit
/// ground truth.
class SpeciesBitplanes {
 public:
  explicit SpeciesBitplanes(const Configuration& config);

  [[nodiscard]] std::int32_t width() const { return width_; }
  [[nodiscard]] std::int32_t height() const { return height_; }

  /// Re-derive every bit from `config` (construction, checkpoint restore,
  /// audit repair). The lattice shape and species count must match.
  void rebuild(const Configuration& config);

  /// Resync the bits of one site from the configuration: clears the site's
  /// bit in every plane, then sets it in the plane of the current species.
  /// Idempotent: it reads only the site's current species.
  void resync_site(const Configuration& config, SiteIndex s);

  /// 64-bit words per plane row: ceil(width / 64). The bits past the width
  /// are always zero.
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  /// Species sp's bits along row y: bit x & 63 of word x >> 6 is site
  /// (x, y). words_per_row() words.
  [[nodiscard]] const std::uint64_t* plane_row(Species sp, std::int32_t y) const {
    return bits_.data() + (static_cast<std::size_t>(sp) * height_ + y) * words_per_row_;
  }

  [[nodiscard]] bool bit(Species sp, std::int32_t x, std::int32_t y) const {
    const std::uint64_t* row = plane_row(sp, y);
    return (row[static_cast<std::size_t>(x) >> 6] >>
            (static_cast<std::uint32_t>(x) & 63u)) & 1u;
  }

  /// Audit ground truth: true when every bit agrees with `config`.
  [[nodiscard]] bool matches(const Configuration& config) const;

 private:
  [[nodiscard]] std::uint64_t* mutable_row(Species sp, std::int32_t y) {
    return bits_.data() + (static_cast<std::size_t>(sp) * height_ + y) * words_per_row_;
  }

  std::int32_t width_ = 0;
  std::int32_t height_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t num_species_ = 0;
  std::vector<std::uint64_t> bits_;  // [species][row][word], row-padded
};

}  // namespace casurf
