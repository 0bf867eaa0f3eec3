#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>

#include "dmc/demand_zero_array.hpp"
#include "lattice/lattice.hpp"

namespace casurf {

/// Dense set of lattice sites with O(1) insert, erase, membership and
/// uniform sampling: the classic vector + position-index trick. One
/// instance per reaction type tracks where that type is currently enabled;
/// this is the bookkeeping that makes VSSM event selection O(1). VSSM keeps
/// the sets current with the visits of its Rechecker
/// (model/probe_plans.hpp), applied in that routine's fixed order once the
/// event's visits are all recorded: a set's layout depends on the order of
/// its inserts and erases, and sampling by dense position makes the layout
/// part of the trajectory.
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

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool contains(SiteIndex s) const { return pos_[s] != 0; }

  /// Makes s a member if `now` and a non-member otherwise. A new member
  /// takes the next dense position; a member that leaves is replaced by
  /// the last one (swap-with-last). A call that changes nothing stores
  /// nothing. That test is the call's only branch on its arguments (the
  /// other, on the capacity, is almost never taken): the insert and the
  /// erase are one sequence of selects, so a run of calls that alternate
  /// between them costs no mispredicted branches.
  void assign(SiteIndex s, bool now) {
    const std::uint32_t p = pos_[s];
    if ((p != 0) == now) return;
    if (size_ == capacity_) grow();  // only ever true on an insert
    const std::uint32_t n = size_;
    // Insert: s goes to slot n. Erase: the last member (slot n - 1; n >= 1
    // since s is a member) moves to s's slot p - 1. An insert into an empty
    // set reads slot 0, which grow() initialised. The selects are masks, not
    // conditionals, which the compiler would turn back into a branch on now.
    const std::uint32_t ins = 0u - static_cast<std::uint32_t>(now);  // all ones on insert
    const SiteIndex last = items_[n - (n != 0)];
    const std::uint32_t slot = (n & ins) | ((p - 1) & ~ins);
    const SiteIndex moved = (s & ins) | (last & ~ins);
    items_[slot] = moved;
    pos_[moved] = slot + 1;
    // After the line above so that erasing the last member leaves it absent.
    pos_[s] = (n + 1) & ins;
    size_ = n - 1 + 2 * static_cast<std::uint32_t>(now);
  }

  /// Idempotent insert.
  void insert(SiteIndex s) { assign(s, true); }

  /// Idempotent erase (swap-with-last).
  void erase(SiteIndex s) { assign(s, false); }

  /// Starts loading the index entry of s, which assign(s, ...) reads
  /// first: a caller with several updates to make starts every prefetch
  /// before the first update, so the entries' cache misses overlap.
  void prefetch(SiteIndex s) const { __builtin_prefetch(pos_.data() + s); }

  /// Remove every element (audit repair / state restore keep the set's
  /// capacity and rebuild membership in a chosen order).
  void clear() {
    for (const SiteIndex s : items()) pos_[s] = 0;
    size_ = 0;
  }

  /// Element at dense position i (0 <= i < size()); the basis of uniform
  /// sampling.
  [[nodiscard]] SiteIndex at(std::size_t i) const {
    assert(i < size_);
    return items_[i];
  }

  /// The members in dense order.
  [[nodiscard]] std::span<const SiteIndex> items() const { return {items_.get(), size_}; }

 private:
  // Doubles the capacity, as std::vector would. The slots past the members
  // stay uninitialised (untouched pages of a large block cost no memory),
  // except slot 0 of the first block, which assign reads on an insert into
  // an empty set.
  void grow() {
    const std::size_t capacity = std::max<std::size_t>(1, 2 * capacity_);
    std::unique_ptr<SiteIndex[]> bigger(new SiteIndex[capacity]);
    if (size_ == 0) bigger[0] = 0;
    std::copy_n(items_.get(), size_, bigger.get());
    items_ = std::move(bigger);
    capacity_ = capacity;
  }

  std::unique_ptr<SiteIndex[]> items_;  // members in [0, size_) of capacity_ slots
  std::uint32_t size_ = 0;
  std::size_t capacity_ = 0;
  DemandZeroArray<std::uint32_t> pos_;  // dense position + 1; 0 = absent
};

}  // namespace casurf
