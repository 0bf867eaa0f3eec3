#include "ca/pndca.hpp"

#include <bit>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"
#include "partition/conflict.hpp"
#include "rng/distributions.hpp"

namespace casurf {

PndcaSimulator::PndcaSimulator(const ReactionModel& model, Configuration config,
                               std::vector<Partition> partitions, std::uint64_t seed,
                               ChunkPolicy policy, TimeMode time_mode)
    : Simulator(model, std::move(config)),
      partitions_(std::move(partitions)),
      rng_(seed),
      policy_(policy),
      time_mode_(time_mode),
      seed_(seed),
      rate_nk_(static_cast<double>(config_.size()) * model.total_rate()) {
  if (partitions_.empty()) {
    throw std::invalid_argument("PNDCA: at least one partition required");
  }
  for (const Partition& p : partitions_) {
    if (!(p.lattice() == config_.lattice())) {
      throw std::invalid_argument("PNDCA: partition lattice mismatch");
    }
  }
  if (policy_ == ChunkPolicy::kRateWeighted) {
    // One full scan at construction; from here on the per-chunk enabled
    // rates are maintained incrementally (slot i == partition i).
    rate_cache_ = std::make_unique<EnabledRateCache>(model_, config_);
    for (const Partition& p : partitions_) rate_cache_->add_partition(p);
  }
}

double PndcaSimulator::enabled_rate_in_chunk(const Partition& p, ChunkId c) const {
  double rate = 0;
  for (const SiteIndex s : p.chunk(c)) {
    for (const ReactionType& rt : model_.reactions()) {
      if (rt.enabled(config_, s)) rate += rt.rate();
    }
  }
  return rate;
}

void PndcaSimulator::refresh_rate_cache(const ReactionType& reaction, SiteIndex s) {
  const Lattice& lat = config_.lattice();
  const Partition& p = partitions_[partition_cursor_];
  for (const Transform& t : reaction.transforms()) {
    if (t.tg != kKeep) {
      const SiteIndex written = lat.neighbor(s, t.offset);
      rate_cache_->refresh_after(config_, written);
      if (rate_rechecks_ != nullptr) rate_rechecks_->add();
      // A write landing outside the anchor's chunk is a measured boundary
      // conflict: the reaction invalidated cached rates across a partition
      // seam (exactly the coupling the non-overlap rule serializes).
      if (boundary_rechecks_ != nullptr && p.chunk_of(written) != p.chunk_of(s)) {
        boundary_rechecks_->add();
      }
    }
  }
}

void PndcaSimulator::attach(const obs::Sinks& sinks) {
  Simulator::attach(sinks);
  obs::MetricsRegistry* const registry = sinks.metrics;
  step_timer_ = registry ? &registry->timer("pndca/step") : nullptr;
  plan_timer_ = registry ? &registry->timer("pndca/plan") : nullptr;
  sweep_timer_ = registry ? &registry->timer("pndca/sweep") : nullptr;
  rate_rechecks_ = registry ? &registry->counter("pndca/rate_rechecks") : nullptr;
  boundary_rechecks_ = registry ? &registry->counter("pndca/boundary_rechecks") : nullptr;
  chunk_sites_ = registry ? &registry->histogram("pndca/chunk_sites") : nullptr;
}

void PndcaSimulator::save_state(StateWriter& w) const {
  Simulator::save_state(w);
  w.section("pndca");
  rng_.save(w);
  w.u64(sweep_);
  w.u64(partition_cursor_);
  w.vec_u64(schedule_);
}

void PndcaSimulator::restore_state(StateReader& r) {
  Simulator::restore_state(r);
  r.expect_section("pndca");
  rng_.restore(r);
  sweep_ = r.u64();
  partition_cursor_ = static_cast<std::size_t>(r.u64());
  if (partition_cursor_ >= partitions_.size()) {
    throw StateFormatError("pndca partition cursor out of range");
  }
  schedule_ = r.vec_u64<ChunkId>(SIZE_MAX, "pndca schedule");
  for (const ChunkId c : schedule_) {
    if (c >= partitions_[partition_cursor_].num_chunks()) {
      throw StateFormatError("pndca schedule references chunk out of range");
    }
  }
  // Derived, not serialized: recompute the enabled-rate cache and the
  // bitplane mirror from the restored configuration.
  if (rate_cache_) rate_cache_->rebuild(config_);
  if (fast_) {
    fast_->planes.rebuild(config_);
    fast_->enabled.rebuild(fast_->planes, fast_->probes);
  }
}

void PndcaSimulator::audit_derived_state(AuditReport& report, bool repair) {
  Simulator::audit_derived_state(report, repair);
  if (fast_ && !fast_->planes.matches(config_)) {
    report.issues.push_back(
        {"bitplanes", "species bitplanes disagree with the configuration"});
    if (repair) fast_->planes.rebuild(config_);
  }
  // Audited after (and, on repair, against) the planes: the bitset derives
  // from them through the probe plans.
  if (fast_ && !fast_->enabled.matches(fast_->planes, fast_->probes)) {
    report.issues.push_back(
        {"enabled-types", "per-site enabled-type bitset disagrees with the planes"});
    if (repair) fast_->enabled.rebuild(fast_->planes, fast_->probes);
  }
  if (!rate_cache_) return;
  std::vector<std::string> details;
  if (!rate_cache_->verify(config_, details)) {
    for (std::string& d : details) report.issues.push_back({"rate-cache", std::move(d)});
    if (repair) rate_cache_->rebuild(config_);
  }
}

std::vector<ChunkId> PndcaSimulator::plan_schedule() {
  const Partition& p = partitions_[partition_cursor_];
  const std::size_t m = p.num_chunks();
  std::vector<ChunkId> schedule(m);

  switch (policy_) {
    case ChunkPolicy::kInOrder:
      std::iota(schedule.begin(), schedule.end(), ChunkId{0});
      break;
    case ChunkPolicy::kRandomOrder: {
      std::iota(schedule.begin(), schedule.end(), ChunkId{0});
      for (std::size_t i = m; i > 1; --i) {
        const auto j = static_cast<std::size_t>(uniform_below(rng_, i));
        std::swap(schedule[i - 1], schedule[j]);
      }
      break;
    }
    case ChunkPolicy::kRandomWithReplacement:
      // |P| draws, each chunk with probability 1/|P| (paper's option 3).
      for (std::size_t i = 0; i < m; ++i) {
        schedule[i] = static_cast<ChunkId>(uniform_below(rng_, m));
      }
      break;
    case ChunkPolicy::kRateWeighted: {
      // |P| draws weighted by the rate of currently-enabled reactions in
      // each chunk (paper's option 4). The weights come from the
      // incremental cache — no full-lattice rescan — and are frozen at the
      // start of the step; each draw costs O(log m) through the Fenwick
      // sampler, which never selects a zero-weight chunk. With nothing
      // enabled anywhere the draw degenerates to uniform.
      const ChunkSampler& sampler = rate_cache_->sampler(partition_cursor_);
      for (std::size_t i = 0; i < m; ++i) {
        schedule[i] = sampler.total() > 0
                          ? sampler.sample(uniform01(rng_))
                          : static_cast<ChunkId>(uniform_below(rng_, m));
      }
      break;
    }
  }
  return schedule;
}

std::int32_t PndcaSimulator::trial_at(std::uint64_t sweep, SiteIndex s,
                                      std::int64_t* deltas) {
  // Each (sweep, site) pair owns a private random stream: the trial outcome
  // is independent of the order in which chunk sites are visited, which is
  // what lets the threaded engine replay this exact trajectory.
  //
  // The draw order is pinned: the stream's FIRST value feeds the alias flip
  // and the SECOND the slot. (Historic accident — the original code drew
  // both inside the call's argument list and the compiler evaluated right
  // to left — but now load-bearing: the batched lane path and every stored
  // trajectory reproduce exactly this assignment.)
  CounterRng crng(seed_, CounterRng::key(sweep, s));
  const double u_flip = crng.next_double();
  const double u_slot = crng.next_double();
  const ReactionIndex rt = model_.sample_type(u_slot, u_flip);
  const ReactionType& reaction = model_.reaction(rt);
  // Per-site recording is race-free under the threaded engine: same-chunk
  // sites are disjoint by the non-overlap rule, same as set_raw writes.
  spatial_.attempt(s);
  if (!reaction.enabled(config_, s)) return kNoReaction;
  spatial_.fire(s);
  if (deltas == nullptr) {
    reaction.execute(config_, s);
    record_execution(rt);
    if (rate_cache_) refresh_rate_cache(reaction, s);
  } else {
    reaction.execute_raw(config_, s, deltas);
  }
  return static_cast<std::int32_t>(rt);
}

void PndcaSimulator::mc_step() {
  const obs::ScopedTimer step_span(step_timer_);
  const obs::ScopedSpan step_trace(trace_, "pndca/step", time_, counters_.steps);
  partition_cursor_ = static_cast<std::size_t>(counters_.steps % partitions_.size());
  {
    const obs::ScopedTimer plan_span(plan_timer_);
    const obs::ScopedSpan plan_trace(trace_, "pndca/plan", time_, counters_.steps);
    schedule_ = plan_schedule();
  }
  const Partition& p = partitions_[partition_cursor_];

  for (const ChunkId c : schedule_) {
    ++sweep_;
    if (chunk_sites_ != nullptr) chunk_sites_->record(p.chunk(c).size());
    {
      const obs::ScopedTimer sweep_span(sweep_timer_);
      const obs::ScopedSpan sweep_trace(trace_, "pndca/sweep", time_, sweep_);
      execute_chunk(sweep_, c, p.chunk(c));
    }

    // Time advances once per trial, drawn from the schedule-level
    // generator in a fixed order — identical under any thread scheduling.
    const std::size_t n = p.chunk(c).size();
    if (time_mode_ == TimeMode::kStochastic) {
      for (std::size_t i = 0; i < n; ++i) time_ += exponential(rng_, rate_nk_);
    } else {
      time_ += static_cast<double>(n) / rate_nk_;
    }
    counters_.trials += n;
  }
  ++counters_.steps;
}

bool PndcaSimulator::set_fast_path(bool on) {
  fast_.reset();
  if (!on) return false;
  // The batched evaluation reads whole windows against the pre-commit
  // planes; that equals the scalar site-at-a-time loop exactly when no
  // in-chunk execution can flip another same-chunk anchor's enabledness —
  // the paper's non-overlap rule. Partitions violating it (singletons
  // aside, e.g. hand-built ones in tests) keep the scalar reference path.
  const std::vector<Vec2> offsets = conflict_offsets(model_);
  for (const Partition& p : partitions_) {
    if (!partition_gate(p, offsets)) return false;
  }
  fast_ = std::make_unique<FastState>(config_, seed_, model_);
  return true;
}

void PndcaSimulator::execute_chunk(std::uint64_t sweep, ChunkId chunk,
                                   const std::vector<SiteIndex>& sites) {
  (void)chunk;
  if (fast_ == nullptr) {
    for (const SiteIndex s : sites) trial_at(sweep, s);
    return;
  }
  FastState& f = *fast_;
  // The whole sweep's trial front half in one kernel call: RNG lanes, type
  // sample, and the one-load enabled test. The bitset is exact against the
  // pre-sweep state, which equals each trial's state because the
  // non-overlap gate keeps same-chunk anchors unaffected mid-sweep.
  f.hits.resize(sites.size());
  const std::size_t cnt =
      batch_trials(sweep, f.seed_hash, sites.data(), sites.size(),
                   model_.alias_table(), f.enabled, f.hits.data());
  if (spatial_.map() != nullptr) {
    for (const SiteIndex s : sites) spatial_.attempt(s);
  }
  const Lattice& lat = config_.lattice();
  for (std::size_t k = 0; k < cnt; ++k) {
    const SiteIndex s = sites[f.hits[k].index];
    const ReactionIndex rt = f.hits[k].type;
    const ReactionType& reaction = model_.reaction(rt);
    spatial_.fire(s);
    // Capture each written site's species before the commit: the recheck
    // sweep can then skip every candidate indifferent to the transition.
    const auto& trs = reaction.transforms();
    f.old_pre.resize(trs.size());
    for (std::size_t ti = 0; ti < trs.size(); ++ti) {
      f.old_pre[ti] = trs[ti].tg == kKeep
                          ? Species{0}
                          : config_.get(lat.neighbor(s, trs[ti].offset));
    }
    reaction.execute(config_, s);
    record_execution(rt);
    fast_after_fire(reaction, s, /*resync=*/true, f.old_pre.data());
  }
}

void PndcaSimulator::fast_after_fire(const ReactionType& reaction, SiteIndex s,
                                     bool resync, const Species* old_species) {
  FastState& f = *fast_;
  const Lattice& lat = config_.lattice();
  if (resync) resync_written(f.planes, config_, reaction, s);
  const auto width = static_cast<std::int32_t>(lat.width());
  const Partition& p = partitions_[partition_cursor_];
  std::size_t ti = 0;
  for (const Transform& t : reaction.transforms()) {
    const std::size_t idx = ti++;
    if (t.tg == kKeep) continue;
    const SiteIndex written = lat.neighbor(s, t.offset);
    if (rate_cache_) {
      // Mirror the scalar refresh_rate_cache counters: one recheck per
      // written site, seam-classified against the current partition.
      if (rate_rechecks_ != nullptr) rate_rechecks_->add();
      if (boundary_rechecks_ != nullptr && p.chunk_of(written) != p.chunk_of(s)) {
        boundary_rechecks_->add();
      }
    }
    const SpeciesMask old_mask = old_species == nullptr
                                     ? ~SpeciesMask{0}
                                     : SpeciesMask{1} << old_species[idx];
    const SpeciesMask new_mask = SpeciesMask{1} << config_.get(written);
    const auto wx = static_cast<std::int32_t>(written % static_cast<SiteIndex>(width));
    const auto wy = static_cast<std::int32_t>(written / static_cast<SiteIndex>(width));
    f.probes.visit_rechecks(
        f.planes, wx, wy, old_mask, new_mask,
        [&](ReactionIndex rt, SiteIndex anchor, bool now) {
          // The cache's membership bit mirrors the enabled set exactly
          // (both rebuilt from the same configuration, both folded on every
          // visit), so an unchanged bit here makes the cache fold a
          // guaranteed no-op — skip the second bitset walk entirely.
          if (f.enabled.assign(anchor, rt, now) && rate_cache_ != nullptr) {
            rate_cache_->apply_recheck(rt, anchor, now);
          }
        });
  }
}

}  // namespace casurf
