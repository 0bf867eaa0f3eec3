#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "lattice/lattice.hpp"

namespace casurf {

/// Dense set of lattice sites with O(1) insert, erase, membership and
/// uniform sampling: the classic vector + position-index trick. One
/// instance per reaction type tracks where that type is currently enabled;
/// this is the bookkeeping that makes VSSM event selection O(1). VSSM keeps
/// the sets current with the visits of its Rechecker
/// (model/probe_plans.hpp), in that routine's fixed order: a set's layout
/// depends on the order of its inserts and erases, and sampling by dense
/// position makes the layout part of the trajectory.
class EnabledSet {
 public:
  explicit EnabledSet(SiteIndex num_sites)
      : pos_(num_sites, kAbsent) {}

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] bool contains(SiteIndex s) const { return pos_[s] != kAbsent; }

  /// Idempotent insert.
  void insert(SiteIndex s) {
    if (contains(s)) return;
    pos_[s] = static_cast<std::uint32_t>(items_.size());
    items_.push_back(s);
  }

  /// Remove every element (audit repair / state restore keep the set's
  /// capacity and rebuild membership in a chosen order).
  void clear() {
    for (const SiteIndex s : items_) pos_[s] = kAbsent;
    items_.clear();
  }

  /// Idempotent erase (swap-with-last).
  void erase(SiteIndex s) {
    const std::uint32_t p = pos_[s];
    if (p == kAbsent) return;
    const SiteIndex last = items_.back();
    items_[p] = last;
    pos_[last] = p;
    items_.pop_back();
    pos_[s] = kAbsent;
  }

  /// Element at dense position i (0 <= i < size()); the basis of uniform
  /// sampling.
  [[nodiscard]] SiteIndex at(std::size_t i) const {
    assert(i < items_.size());
    return items_[i];
  }

  [[nodiscard]] const std::vector<SiteIndex>& items() const { return items_; }

 private:
  static constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

  std::vector<SiteIndex> items_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace casurf
