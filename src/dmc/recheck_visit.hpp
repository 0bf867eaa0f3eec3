#pragma once

#include <algorithm>
#include <cstddef>

#include "lattice/lattice.hpp"
#include "model/reaction_model.hpp"

namespace casurf {

/// One visit of Rechecker::after_fire (model/probe_plans.hpp), recorded:
/// the pair (type, anchor) and its enabledness in the configuration after
/// the event. VSSM and FRM record an event's visits, prefetching the index
/// entry each one will update, and apply them in visit order once
/// after_fire returns.
struct RecheckVisit {
  ReactionIndex type;
  SiteIndex anchor;
  bool now;
};

/// The most visits one after_fire call on `model` can make: every written
/// site visits each entry of the recheck table at most once, the table
/// holds at most one entry per transform of each type, and an event
/// writes at most one site per transform of its type. A buffer reserved
/// to this never reallocates.
[[nodiscard]] inline std::size_t max_recheck_visits(const ReactionModel& model) {
  std::size_t transforms = 0;
  std::size_t writes = 0;
  for (const ReactionType& rt : model.reactions()) {
    transforms += rt.transforms().size();
    writes = std::max(writes, rt.transforms().size());
  }
  return transforms * writes;
}

}  // namespace casurf
