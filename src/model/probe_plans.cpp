#include "model/probe_plans.hpp"

#include <algorithm>

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
    for (const Transform& tr : model.reaction(t).transforms()) {
      const SpeciesMask m = tr.src & full;
      if (m == full) continue;  // matches every species: always true
      if (m == 0) {             // matches nothing: the type can never fire
        ts.never = true;
        break;
      }
      Probe p;
      // Wrap the offsets once so evaluation needs only a conditional
      // subtract per axis: anchor + wrapped offset lands in [0, 2*extent).
      p.dx = ((tr.offset.x % width) + width) % width;
      p.dy = ((tr.offset.y % height) + height) % height;
      p.first_sp = static_cast<std::uint32_t>(species_.size());
      for (Species sp = 0; sp < num_species; ++sp) {
        if (mask_contains(m, sp)) species_.push_back(sp);
      }
      p.num_sp = static_cast<std::uint32_t>(species_.size()) - p.first_sp;
      probes_.push_back(p);
    }
    ts.count = ts.never ? 0
                        : static_cast<std::uint32_t>(probes_.size()) - ts.first;
    if (ts.never) probes_.resize(ts.first);
    if (ts.never) continue;
    // Recheck table, built while the probes are still in transform order
    // (the visit order visit_rechecks promises): a write at z can flip
    // type t anchored at z - o only for the offsets o of the probes kept
    // above (trivial transforms can never flip a result). Offsets are
    // deduplicated after wrapping, so tiny lattices where distinct offsets
    // alias don't visit twice.
    for (std::uint32_t pi = ts.first; pi < ts.first + ts.count; ++pi) {
      const std::int32_t rdx = probes_[pi].dx == 0 ? 0 : width - probes_[pi].dx;
      const std::int32_t rdy = probes_[pi].dy == 0 ? 0 : height - probes_[pi].dy;
      SpeciesMask pmask = 0;
      for (std::uint32_t k = 0; k < probes_[pi].num_sp; ++k) {
        pmask |= SpeciesMask{1} << species_[probes_[pi].first_sp + k];
      }
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
    // enabled() is a short-circuiting conjunction over the probes and each
    // Probe carries its own species span, so their order is free to choose:
    // test the most selective (fewest matching species) probes first to
    // exit on a miss as early as possible.
    std::stable_sort(probes_.begin() + ts.first, probes_.end(),
                     [](const Probe& a, const Probe& b) {
                       return a.num_sp < b.num_sp;
                     });
  }
}

Rechecker::Rechecker(const ReactionModel& model, const Configuration& config)
    : planes_(config),
      probes_(model, config.lattice().width(), config.lattice().height()) {}

void Rechecker::capture_old_species(const Configuration& config, const ReactionType& rt,
                                    SiteIndex s, Species* out) {
  const Lattice& lat = config.lattice();
  const std::vector<Transform>& trs = rt.transforms();
  for (std::size_t ti = 0; ti < trs.size(); ++ti) {
    out[ti] = trs[ti].tg == kKeep ? Species{0} : config.get(lat.neighbor(s, trs[ti].offset));
  }
}

const Species* Rechecker::execute(Configuration& config, const ReactionType& rt,
                                  SiteIndex s) {
  old_species_.resize(rt.transforms().size());
  capture_old_species(config, rt, s, old_species_.data());
  rt.execute(config, s);
  return old_species_.data();
}

}  // namespace casurf
