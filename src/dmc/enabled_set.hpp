#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "dmc/demand_zero_array.hpp"
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
///
/// The position index holds each member's dense position + 1, so 0 means
/// absent and a new index is all zero. It lives on demand-zero pages
/// (dmc/demand_zero_array.hpp): a type costs index memory only on the
/// 4 KB pages (1,024 sites) where it is ever enabled, not 4 bytes per
/// lattice site. On Pt(100), 32 of the 39 types are enabled at a few dozen
/// sites at most, so most of their index pages are never written.
class EnabledSet {
 public:
  explicit EnabledSet(SiteIndex num_sites) : pos_(num_sites) {}

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] bool contains(SiteIndex s) const { return pos_[s] != 0; }

  /// Idempotent insert.
  void insert(SiteIndex s) {
    if (contains(s)) return;
    items_.push_back(s);
    pos_[s] = static_cast<std::uint32_t>(items_.size());
  }

  /// Remove every element (audit repair / state restore keep the set's
  /// capacity and rebuild membership in a chosen order).
  void clear() {
    for (const SiteIndex s : items_) pos_[s] = 0;
    items_.clear();
  }

  /// Idempotent erase (swap-with-last).
  void erase(SiteIndex s) {
    const std::uint32_t p = pos_[s];
    if (p == 0) return;
    const SiteIndex last = items_.back();
    items_[p - 1] = last;
    pos_[last] = p;
    items_.pop_back();
    pos_[s] = 0;
  }

  /// Element at dense position i (0 <= i < size()); the basis of uniform
  /// sampling.
  [[nodiscard]] SiteIndex at(std::size_t i) const {
    assert(i < items_.size());
    return items_[i];
  }

  [[nodiscard]] const std::vector<SiteIndex>& items() const { return items_; }

 private:
  std::vector<SiteIndex> items_;
  DemandZeroArray<std::uint32_t> pos_;  // dense position + 1; 0 = absent
};

}  // namespace casurf
