#include "model/probe_plans.hpp"

#include <algorithm>
#include <bit>

namespace casurf {

ProbePlans::ProbePlans(const ReactionModel& model, std::int32_t width,
                       std::int32_t height)
    : width_(width), height_(height) {
  const std::size_t num_species = model.species().size();
  const SpeciesMask full =
      num_species >= 32 ? ~SpeciesMask{0}
                        : static_cast<SpeciesMask>((SpeciesMask{1} << num_species) - 1);
  types_.resize(model.num_reactions());
  for (ReactionIndex t = 0; t < model.num_reactions(); ++t) {
    TypeSpan& ts = types_[t];
    ts.first = static_cast<std::uint32_t>(probes_.size());
    bool never = false;
    for (const Transform& tr : model.reaction(t).transforms()) {
      const SpeciesMask m = tr.src & full;
      if (m == full) continue;  // matches every species: always true
      if (m == 0) {             // matches nothing: the type can never fire
        never = true;
        break;
      }
      // Wrap the offsets once so evaluation needs only a conditional
      // subtract per axis: anchor + wrapped offset lands in [0, 2*extent).
      probes_.push_back({((tr.offset.x % width) + width) % width,
                         ((tr.offset.y % height) + height) % height, m});
    }
    if (never) {
      // The one probe that matches no species; no recheck can flip it.
      probes_.resize(ts.first);
      probes_.push_back({0, 0, 0});
      ts.count = 1;
      continue;
    }
    ts.count = static_cast<std::uint32_t>(probes_.size()) - ts.first;
    // Recheck table, built while the probes are still in transform order
    // (the visit order visit_rechecks promises): a write at z can flip
    // type t anchored at z - o only for the offsets o of the probes kept
    // above (trivial transforms can never flip a result). Offsets are
    // deduplicated after wrapping, so tiny lattices where distinct offsets
    // alias don't visit twice.
    for (std::uint32_t pi = ts.first; pi < ts.first + ts.count; ++pi) {
      const std::int32_t rdx = probes_[pi].dx == 0 ? 0 : width - probes_[pi].dx;
      const std::int32_t rdy = probes_[pi].dy == 0 ? 0 : height - probes_[pi].dy;
      const SpeciesMask pmask = probes_[pi].mask;
      bool seen = false;
      for (std::size_t k = rechecks_.size();
           k > 0 && rechecks_[k - 1].type == t; --k) {
        if (rechecks_[k - 1].dx == rdx && rechecks_[k - 1].dy == rdy) {
          // Offsets aliasing after the wrap merge their masks: the entry
          // stays relevant to any species either probe watches. The merged
          // mask no longer describes a single probe's hit bit, so the
          // single-probe visit shortcuts must not apply to it.
          rechecks_[k - 1].mask |= pmask;
          rechecks_[k - 1].multi = true;
          seen = true;
        }
      }
      if (!seen) rechecks_.push_back({rdx, rdy, t, pmask, false});
    }
    // The evaluators are short-circuiting conjunctions over the probes, so
    // their order is free to choose: test the most selective (fewest
    // matching species) probes first to exit on a miss as early as possible.
    std::stable_sort(probes_.begin() + ts.first, probes_.end(),
                     [](const Probe& a, const Probe& b) {
                       return std::popcount(a.mask) < std::popcount(b.mask);
                     });
  }
  for (const TypeSpan& ts : types_) lanes_.rounds = std::max(lanes_.rounds, ts.count);
  lanes_.in_registers =
      types_.size() <= LaneTable::kWords && probes_.size() <= LaneTable::kWords;
  if (!lanes_.in_registers) return;
  for (std::size_t t = 0; t < types_.size(); ++t) {
    lanes_.columns[LaneTable::kFirst][t] = types_[t].first;
    lanes_.columns[LaneTable::kCount][t] = types_[t].count;
  }
  for (std::size_t p = 0; p < probes_.size(); ++p) {
    lanes_.columns[LaneTable::kDx][p] = static_cast<std::uint32_t>(probes_[p].dx);
    lanes_.columns[LaneTable::kDy][p] = static_cast<std::uint32_t>(probes_[p].dy);
    lanes_.columns[LaneTable::kMask][p] = probes_[p].mask;
  }
}

namespace {

/// Bits [start, start + 64) of a row of `words` words, reading every bit
/// outside [0, 64 * words) as zero; `start` may be negative.
std::uint64_t bits_from(const std::uint64_t* row, std::int64_t words,
                        std::int64_t start) {
  const std::int64_t q = start >> 6;  // floor(start / 64), also below zero
  const auto r = static_cast<unsigned>(start & 63);
  const auto word = [&](std::int64_t i) { return i >= 0 && i < words ? row[i] : 0; };
  return r == 0 ? word(q) : (word(q) >> r) | (word(q + 1) << (64 - r));
}

}  // namespace

void ProbePlans::row_enabled(const SpeciesBitplanes& planes, ReactionIndex t,
                             std::int32_t y, std::uint64_t* out) const {
  const auto words = static_cast<std::int64_t>(planes.words_per_row());
  const auto height = static_cast<std::uint32_t>(height_);
  std::fill(out, out + words, ~std::uint64_t{0});
  const TypeSpan& ts = types_[t];
  for (const Probe& p : probes().subspan(ts.first, ts.count)) {
    // Unsigned, as in matches(): y + dy stays below 2 * height.
    std::uint32_t py = static_cast<std::uint32_t>(y) + static_cast<std::uint32_t>(p.dy);
    if (py >= height) py -= height;
    for (std::int64_t k = 0; k < words; ++k) {
      // Bit x of the probe is plane bit x + dx, wrapped: the row read from
      // dx, plus the row read from dx - width for the anchors whose probe
      // wraps past the seam. Both reads see zeros past the width, and the
      // second leaves stray bits only beyond the width, cleared below.
      const std::int64_t from = 64 * k + p.dx;
      std::uint64_t hit = 0;
      for (SpeciesMask m = p.mask; m != 0; m &= m - 1) {
        const std::uint64_t* row =
            planes.plane_row(static_cast<Species>(std::countr_zero(m)),
                             static_cast<std::int32_t>(py));
        hit |= bits_from(row, words, from) | bits_from(row, words, from - width_);
      }
      out[k] &= hit;
    }
  }
  if (const auto tail = static_cast<unsigned>(width_ & 63); tail != 0) {
    out[words - 1] &= (std::uint64_t{1} << tail) - 1;
  }
}

Rechecker::Rechecker(const ReactionModel& model, const Lattice& lattice)
    : probes_(model, lattice.width(), lattice.height()) {}

const Species* Rechecker::execute(Configuration& config, const ReactionType& rt,
                                  SiteIndex s) {
  const Lattice& lat = config.lattice();
  const std::vector<Transform>& trs = rt.transforms();
  old_species_.resize(trs.size());
  for (std::size_t ti = 0; ti < trs.size(); ++ti) {
    old_species_[ti] =
        trs[ti].tg == kKeep ? Species{0} : config.get(lat.neighbor(s, trs[ti].offset));
  }
  rt.execute(config, s);
  return old_species_.data();
}

}  // namespace casurf
