#include "ca/rate_cache.hpp"

#include <stdexcept>
#include <string>

namespace casurf {

EnabledRateCache::EnabledRateCache(const ReactionModel& model,
                                   const Configuration& config)
    : model_(model),
      num_types_(model.num_reactions()),
      num_sites_(config.size()),
      rechecker_(model, config.lattice()) {
  enabled_.rebuild(SpeciesBitplanes(config), rechecker_.probes());
}

std::size_t EnabledRateCache::add_partition(const Partition& partition) {
  if (partition.size() != num_sites_) {
    throw std::invalid_argument("EnabledRateCache: partition lattice mismatch");
  }
  Slot slot;
  slot.num_chunks = partition.num_chunks();
  slot.chunk_of = partition.chunk_of_sites();
  recount_slot(slot);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void EnabledRateCache::recount_slot(Slot& slot) const {
  slot.counts.assign(slot.num_chunks * num_types_, 0);
  for (SiteIndex s = 0; s < num_sites_; ++s) {
    std::uint32_t* row = slot.counts.data() +
                         static_cast<std::size_t>(slot.chunk_of[s]) * num_types_;
    for (std::size_t t = 0; t < num_types_; ++t) {
      row[t] += enabled_.test(s, static_cast<ReactionIndex>(t)) ? 1 : 0;
    }
  }
  slot.cumulative_dirty = true;
}

void EnabledRateCache::rebuild(const Configuration& config) {
  enabled_.rebuild(SpeciesBitplanes(config), rechecker_.probes());
  for (Slot& slot : slots_) recount_slot(slot);
}

void EnabledRateCache::execute(Configuration& config, const ReactionType& rt,
                               SiteIndex s, std::size_t slot) {
  const Species* old_species = rechecker_.execute(config, rt, s);
  if (rechecks_ != nullptr) {
    const Lattice& lat = config.lattice();
    const std::vector<ChunkId>& chunk_of = slots_[slot].chunk_of;
    for (const Transform& t : rt.transforms()) {
      if (t.tg == kKeep) continue;
      rechecks_->add();
      if (chunk_of[lat.neighbor(s, t.offset)] != chunk_of[s]) boundary_->add();
    }
  }
  rechecker_.after_fire(config, rt, s, old_species,
                        [&](ReactionIndex t, SiteIndex anchor, bool now) {
                          apply_recheck(t, anchor, now);
                        });
}

bool EnabledRateCache::verify(const Configuration& config,
                              std::vector<std::string>& out,
                              std::size_t max_issues) const {
  bool ok = true;
  const auto issue = [&](std::string what) {
    ok = false;
    if (out.size() < max_issues) out.push_back(std::move(what));
  };
  // Recompute every enabledness bit, and every slot's counts from those,
  // then compare.
  std::vector<std::vector<std::uint32_t>> fresh;
  for (const Slot& slot : slots_) fresh.emplace_back(slot.num_chunks * num_types_, 0);
  for (std::size_t t = 0; t < num_types_; ++t) {
    const ReactionType& rt = model_.reaction(static_cast<ReactionIndex>(t));
    for (SiteIndex s = 0; s < num_sites_; ++s) {
      const bool on = rt.enabled(config, s);
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        fresh[i][static_cast<std::size_t>(slots_[i].chunk_of[s]) * num_types_ + t] += on;
      }
      const bool cached = enabled_.test(s, static_cast<ReactionIndex>(t));
      if (on == cached) continue;
      issue("enabledness bit (type " + std::to_string(t) + ", site " + std::to_string(s) +
            "): cached " + (cached ? "1" : "0") + ", recomputed " + (on ? "1" : "0"));
    }
  }
  for (std::size_t slot_index = 0; slot_index < slots_.size(); ++slot_index) {
    const std::vector<std::uint32_t>& counts = slots_[slot_index].counts;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (fresh[slot_index][i] == counts[i]) continue;
      issue("slot " + std::to_string(slot_index) + " count (chunk " +
            std::to_string(i / num_types_) + ", type " + std::to_string(i % num_types_) +
            "): cached " + std::to_string(counts[i]) + ", recomputed " +
            std::to_string(fresh[slot_index][i]));
    }
  }
  return ok;
}

void EnabledRateCache::attach_counters(EnabledRateCache* cache,
                                       obs::MetricsRegistry* registry,
                                       const std::string& algo) {
  obs::Counter* const rechecks =
      registry ? &registry->counter(algo + "/rate_rechecks") : nullptr;
  obs::Counter* const boundary =
      registry ? &registry->counter(algo + "/boundary_rechecks") : nullptr;
  if (cache == nullptr) return;
  cache->rechecks_ = rechecks;
  cache->boundary_ = boundary;
}

void EnabledRateCache::audit(const Configuration& config, AuditReport& report,
                             bool repair) {
  std::vector<std::string> details;
  if (verify(config, details)) return;
  for (std::string& d : details) report.issues.push_back({"rate-cache", std::move(d)});
  if (repair) rebuild(config);
}

double EnabledRateCache::chunk_rate(std::size_t slot_index, ChunkId c) const {
  const Slot& slot = slots_[slot_index];
  double rate = 0.0;
  for (std::size_t t = 0; t < num_types_; ++t) {
    rate += model_.reaction(static_cast<ReactionIndex>(t)).rate() *
            static_cast<double>(
                slot.counts[static_cast<std::size_t>(c) * num_types_ + t]);
  }
  return rate;
}

const std::vector<double>& EnabledRateCache::chunk_cumulative(std::size_t slot_index) const {
  const Slot& slot = slots_[slot_index];
  if (slot.cumulative_dirty) {
    // Summed from the integer counts in a fixed order, so identical counts
    // (however they were reached) give a bit-identical table. This is what
    // keeps serial and threaded rate-weighted trajectories in lockstep.
    slot.cumulative.resize(slot.num_chunks);
    double acc = 0.0;
    for (ChunkId c = 0; c < slot.num_chunks; ++c) {
      slot.cumulative[c] = acc += chunk_rate(slot_index, c);
    }
    slot.cumulative_dirty = false;
  }
  return slot.cumulative;
}

}  // namespace casurf
