// The PNDCA family against its reference: each simulator runs in lockstep
// with a test-only sweep written the obvious way — per-site stream word
// seed_hash(seed) ^ key(sweep, s), its first output drawing the type
// through AliasTable::sample_bits, ReactionType::enabled, execute — and
// must agree after every MC step: same configuration, clock and counters.
// A divergence pinpoints the first step that differs. The kernel tests hold
// sample_types and batch_trials to the same per-site draws, and the span
// kernel enabled_trials, 8-lane and scalar, to ReactionType::enabled trial
// for trial.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ca/fastpath.hpp"
#include "ca/lpndca.hpp"
#include "ca/ndca.hpp"
#include "ca/pndca.hpp"
#include "ca/tpndca.hpp"
#include "core/audit.hpp"
#include "dmc/rsm.hpp"
#include "models/diffusion.hpp"
#include "models/ising.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "obs/metrics.hpp"
#include "obs/spatial.hpp"
#include "partition/coloring.hpp"
#include "partition/conflict.hpp"
#include "partition/type_partition.hpp"
#include "rng/counter_rng.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

/// The stream word of the trial keyed by (step, word): one mix of the key,
/// xored with the seed's hash.
std::uint64_t stream_word(std::uint64_t seed, std::uint64_t step, std::uint64_t word) {
  return CounterRng::seed_hash(seed) ^ CounterRng::key(step, word);
}

/// The type a stream word draws: its first output, through the alias
/// table's slot and 32-bit flip.
ReactionIndex type_of(const AliasTable& alias, std::uint64_t word) {
  return static_cast<ReactionIndex>(alias.sample_bits(CounterRng::nth(word, 1)));
}

/// The reference trial: the type the site's stream word draws.
ReactionIndex reference_type(const ReactionModel& model, std::uint64_t seed,
                             std::uint64_t sweep, SiteIndex s) {
  return type_of(model.alias_table(), stream_word(seed, sweep, s));
}

/// PNDCA with the reference sweep in place of the library's sweeps. The
/// schedule (policy draws, time advance) is PNDCA's own; under rate
/// weighting the cache is rebuilt from the lattice after every sweep, so
/// the chunk weights never depend on the incremental refresh under test.
class ReferencePndca final : public PndcaSimulator {
 public:
  ReferencePndca(const ReactionModel& model, Configuration config,
                 std::vector<Partition> partitions, std::uint64_t seed,
                 ChunkPolicy policy)
      : PndcaSimulator(model, std::move(config), std::move(partitions), seed, policy),
        seed_(seed) {}

  void mc_step() override {
    partition_cursor_ = static_cast<std::size_t>(counters_.steps % partitions_.size());
    schedule_ = plan_schedule();
    for (const ChunkId c : schedule_) {
      const std::vector<SiteIndex>& sites = partitions_[partition_cursor_].chunk(c);
      ++sweep_;
      for (const SiteIndex s : sites) {
        const ReactionIndex rt = reference_type(model_, seed_, sweep_, s);
        const ReactionType& reaction = model_.reaction(rt);
        if (!reaction.enabled(config_, s)) continue;
        reaction.execute(config_, s);
        record_execution(rt);
      }
      if (rate_cache_) rate_cache_->rebuild(config_);
      clock_.advance(time_, sites.size(), rng_);
      counters_.trials += sites.size();
    }
    ++counters_.steps;
  }

 private:
  std::uint64_t seed_;
};

struct Trajectory {
  double time;
  std::uint64_t trials;
  std::uint64_t executed;
  const Configuration& config;
};

Trajectory of(const Simulator& sim) {
  return {sim.time(), sim.counters().trials, sim.counters().executed,
          sim.configuration()};
}

void expect_same(const Trajectory& ref, const Trajectory& sim, int step) {
  ASSERT_EQ(ref.time, sim.time) << "clock diverged at step " << step;
  ASSERT_EQ(ref.trials, sim.trials) << "step " << step;
  ASSERT_EQ(ref.executed, sim.executed) << "step " << step;
  ASSERT_TRUE(std::ranges::equal(ref.config.raw(), sim.config.raw()))
      << "configuration diverged at step " << step;
}

void expect_lockstep(Simulator& ref, Simulator& sim, int steps) {
  for (int i = 0; i < steps; ++i) {
    ref.mc_step();
    sim.mc_step();
    ASSERT_NO_FATAL_FAILURE(expect_same(of(ref), of(sim), i));
  }
  EXPECT_EQ(ref.counters().executed_per_type, sim.counters().executed_per_type);
}

enum class Surface { kZgb, kPt100, kIsing, kDiffusion };

/// A model with its initial configuration on a side x side lattice.
struct Workload {
  ReactionModel model;
  Configuration init;
};

Workload workload(Surface surface, std::int32_t side) {
  const Lattice lat(side, side);
  if (surface == Surface::kZgb) {
    auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
    return {std::move(zgb.model), Configuration(lat, 3, zgb.vacant)};
  }
  if (surface == Surface::kPt100) {
    auto pt = models::make_pt100();
    const std::size_t species = pt.model.species().size();
    return {std::move(pt.model), Configuration(lat, species, pt.hex_vac)};
  }
  if (surface == Surface::kDiffusion) {
    // Coverage 0.5, where about a quarter of the trials fire.
    auto diffusion = models::make_diffusion();
    Configuration init(lat, 2, diffusion.vacant);
    Xoshiro256 rng(static_cast<std::uint64_t>(side));
    for (SiteIndex s = 0; s < init.size(); ++s) {
      if (uniform_below(rng, 2) == 0) init.set(s, diffusion.particle);
    }
    return {std::move(diffusion.model), std::move(init)};
  }
  auto ising = models::make_ising(0.7);
  Configuration init(lat, 2, 0);
  for (SiteIndex s = 0; s < init.size(); s += 3) init.set(s, 1);
  return {std::move(ising.model), std::move(init)};
}

TEST(FastPath, PndcaAllChunkPolicies) {
  for (const Surface surface : {Surface::kZgb, Surface::kPt100}) {
    const Workload w = workload(surface, 30);
    const Partition p = make_partition(w.init.lattice(), w.model);
    for (const ChunkPolicy policy :
         {ChunkPolicy::kInOrder, ChunkPolicy::kRandomOrder,
          ChunkPolicy::kRandomWithReplacement, ChunkPolicy::kRateWeighted}) {
      SCOPED_TRACE(static_cast<int>(policy));
      ReferencePndca ref(w.model, w.init, {p}, 31, policy);
      PndcaSimulator sim(w.model, w.init, {p}, 31, policy);
      expect_lockstep(ref, sim, 15);
    }
  }
}

/// One threaded row: PNDCA on `threads` threads against the reference.
struct ThreadedRow {
  const char* name;
  Surface surface;
  unsigned threads;
  ChunkPolicy policy;
};

void PrintTo(const ThreadedRow& row, std::ostream* os) { *os << row.name; }

void expect_threaded_lockstep(const ThreadedRow& row, int steps) {
  const Workload w = workload(row.surface, 40);
  const Partition p = make_partition(w.init.lattice(), w.model);
  ReferencePndca ref(w.model, w.init, {p}, 1234, row.policy);
  PndcaSimulator sim(w.model, w.init, {p}, 1234, row.policy, TimeMode::kStochastic,
                     row.threads);
  expect_lockstep(ref, sim, steps);
}

class ThreadedLockstep : public ::testing::TestWithParam<ThreadedRow> {};

TEST_P(ThreadedLockstep, MatchesSerialReference) {
  expect_threaded_lockstep(GetParam(), 15);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ThreadedLockstep,
    ::testing::Values(
        ThreadedRow{"zgb_t2", Surface::kZgb, 2, ChunkPolicy::kRandomOrder},
        ThreadedRow{"zgb_t7", Surface::kZgb, 7, ChunkPolicy::kRandomOrder},
        ThreadedRow{"pt100_t2", Surface::kPt100, 2, ChunkPolicy::kRandomOrder},
        ThreadedRow{"pt100_t7", Surface::kPt100, 7, ChunkPolicy::kRandomOrder},
        ThreadedRow{"ising_t2", Surface::kIsing, 2, ChunkPolicy::kRandomOrder},
        // Rate weighting: the caller's commits refresh the cache.
        ThreadedRow{"zgb_rate_t2", Surface::kZgb, 2, ChunkPolicy::kRateWeighted},
        ThreadedRow{"pt100_rate_t7", Surface::kPt100, 7, ChunkPolicy::kRateWeighted}),
    [](const auto& row) { return std::string(row.param.name); });

TEST(FastPath, IsingSevenThreadsLockstep) {
  expect_threaded_lockstep({"ising_t7", Surface::kIsing, 7, ChunkPolicy::kRandomOrder},
                           20);
}

TEST(FastPath, ReadWriteCheckerboardRunsTheBlockPath) {
  // Under the read/write rule Ising's flips only need the two-chunk
  // checkerboard: a flip reads its four neighbors but writes only its own
  // site. PNDCA tests whole chunk sweeps of it before committing, on one
  // thread or several; the full-neighborhood rule, which it fails, is not
  // needed for either.
  const Workload w = workload(Surface::kIsing, 30);
  const Partition p =
      make_partition(w.init.lattice(), w.model, ConflictPolicy::kReadWrite);
  ASSERT_EQ(p.num_chunks(), 2u);
  EXPECT_FALSE(verify_partition(p, conflict_offsets(w.model)));
  for (const unsigned threads : {1u, 2u, 7u}) {
    SCOPED_TRACE(threads);
    ReferencePndca ref(w.model, w.init, {p}, 5, ChunkPolicy::kRandomOrder);
    PndcaSimulator sim(w.model, w.init, {p}, 5, ChunkPolicy::kRandomOrder,
                       TimeMode::kStochastic, threads);
    ASSERT_TRUE(sim.blocks(0));
    expect_lockstep(ref, sim, 20);
  }
}

TEST(FastPath, BlockRuleIsCheckedPerPartition) {
  // A partition that fails the read/write rule runs one-trial spans; the
  // verdict is per partition, so one such partition does not demote the
  // others of the cycle.
  const Workload w = workload(Surface::kZgb, 20);
  const Lattice& lat = w.init.lattice();
  const PndcaSimulator sim(w.model, w.init,
                           {make_partition(lat, w.model), Partition::single_chunk(lat),
                            Partition::singletons(lat)},
                           3);
  EXPECT_TRUE(sim.blocks(0));
  EXPECT_FALSE(sim.blocks(1));
  EXPECT_TRUE(sim.blocks(2));
}

TEST(FastPath, SingleChunkPartitionStaysExact) {
  // One chunk puts conflicting anchors in the same sweep. PNDCA runs such
  // a partition one trial at a time, at any thread count, testing every
  // trial against the live state, so it still matches the reference
  // exactly, with chunk draws uniform and rate-weighted alike.
  const Workload w = workload(Surface::kZgb, 24);
  for (const ChunkPolicy policy :
       {ChunkPolicy::kRandomOrder, ChunkPolicy::kRateWeighted}) {
    for (const unsigned threads : {1u, 2u}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(policy)) + ", " +
                   std::to_string(threads) + " threads");
      const Partition one = Partition::single_chunk(w.init.lattice());
      ReferencePndca ref(w.model, w.init, {one}, 7, policy);
      PndcaSimulator sim(w.model, w.init, {one}, 7, policy, TimeMode::kStochastic,
                         threads);
      expect_lockstep(ref, sim, 10);
    }
  }
}

/// A run of the reference loops below: lattice, generator, clock, counters
/// and the per-site attempt and fire tallies.
struct Reference {
  Configuration cfg;
  Xoshiro256 rng;
  double time = 0;
  std::uint64_t trials = 0;
  std::uint64_t executed = 0;
  std::vector<std::uint64_t> attempts = std::vector<std::uint64_t>(cfg.size());
  std::vector<std::uint64_t> fires = std::vector<std::uint64_t>(cfg.size());

  void trial(const ReactionType& rt, SiteIndex s) {
    ++trials;
    ++attempts[s];
    if (!rt.enabled(cfg, s)) return;
    rt.execute(cfg, s);
    ++executed;
    ++fires[s];
  }
};

Trajectory of(const Reference& r) { return {r.time, r.trials, r.executed, r.cfg}; }

/// One L-PNDCA step written out under its draw law, a trial at a time:
/// trial t of step k owns the stream word of (k, t), whose first output
/// draws its type and whose second its position in the batch's chunk, and
/// is tested on the live lattice and executed at once. Chunk selection and time
/// come from the sequential generator: a rate-weighted draw uses a cache
/// built fresh on the lattice before every batch, and time advances by one
/// Gamma(batch, N K) draw after each batch, or batch / (N K). At L = 1 the
/// reference keeps a per-trial exponential, which must be the same draw bit
/// for bit.
void reference_lpndca_step(Reference& r, const ReactionModel& model, const Partition& p,
                           std::uint32_t l, std::uint64_t seed, std::uint64_t step,
                           ChunkWeighting weighting, TimeMode mode) {
  std::vector<double> sizes;  // cumulative, for the draw when nothing is enabled
  double acc = 0;
  for (ChunkId c = 0; c < p.num_chunks(); ++c) {
    sizes.push_back(acc += static_cast<double>(p.chunk(c).size()));
  }
  const std::uint64_t budget = r.cfg.size();
  const double rate_nk = static_cast<double>(budget) * model.total_rate();
  for (std::uint64_t t = 0; t < budget;) {
    const double u = uniform01(r.rng);
    ChunkId c = static_cast<ChunkId>(sample_cumulative(sizes, u));
    if (weighting == ChunkWeighting::kRateWeighted) {
      EnabledRateCache fresh(model, r.cfg);
      fresh.add_partition(p);
      const std::vector<double>& rates = fresh.chunk_cumulative(0);
      if (rates.back() > 0) c = static_cast<ChunkId>(sample_cumulative(rates, u));
    }
    const std::vector<SiteIndex>& sites = p.chunk(c);
    const std::uint64_t batch = std::min<std::uint64_t>(l, budget - t);
    for (const std::uint64_t end = t + batch; t < end; ++t) {
      const std::uint64_t word = stream_word(seed, step, t);
      __extension__ using u128 = unsigned __int128;
      const auto at = static_cast<std::size_t>(
          (static_cast<u128>(CounterRng::nth(word, 2)) * sites.size()) >> 64);
      r.trial(model.reaction(type_of(model.alias_table(), word)), sites[at]);
      if (l == 1 && mode == TimeMode::kStochastic) r.time += exponential(r.rng, rate_nk);
    }
    if (mode == TimeMode::kDeterministic) {
      r.time += static_cast<double>(batch) / rate_nk;
    } else if (l > 1) {
      r.time += gamma(r.rng, static_cast<double>(batch), rate_nk);
    }
  }
}

/// L-PNDCA against reference_lpndca_step for `steps` MC steps. With
/// `tallies`, an attached spatial map must also hold the reference's
/// per-site attempts and fires after every step.
void expect_lpndca_lockstep(const Workload& w, const Partition& p, std::uint32_t l,
                            ChunkWeighting weighting, TimeMode mode, int steps,
                            bool tallies = false) {
  constexpr std::uint64_t kSeed = 77;
  Reference ref{w.init, Xoshiro256(kSeed)};
  LPndcaSimulator sim(w.model, w.init, p, kSeed, l, mode, weighting);
  obs::SpatialMap map(w.init.size());
  if (tallies) sim.attach({nullptr, nullptr, &map});
  for (int step = 0; step < steps; ++step) {
    reference_lpndca_step(ref, w.model, p, l, kSeed, static_cast<std::uint64_t>(step),
                          weighting, mode);
    sim.mc_step();
    ASSERT_NO_FATAL_FAILURE(expect_same(of(ref), of(sim), step));
    if (!tallies) continue;
    ASSERT_EQ(map.attempts(), ref.attempts) << "attempt tallies diverged at step " << step;
    ASSERT_EQ(map.fires(), ref.fires) << "fire tallies diverged at step " << step;
  }
}

/// Every L of the lockstep matrix on a side x side lattice, under the
/// default partition (which passes the block rule, so batches run in spans)
/// and Partition::single_chunk (which fails it, so every span holds one
/// trial: Fig 8's |P| = 1, L = N limit).
void expect_lpndca_matrix(Surface surface, std::int32_t side, ChunkWeighting weighting) {
  const Workload w = workload(surface, side);
  const Lattice& lat = w.init.lattice();
  const Partition parts[] = {make_partition(lat, w.model), Partition::single_chunk(lat)};
  for (const Partition& p : parts) {
    for (const TimeMode mode : {TimeMode::kStochastic, TimeMode::kDeterministic}) {
      for (const std::uint32_t l : {1u, 2u, 16u, 100u, static_cast<std::uint32_t>(lat.size())}) {
        SCOPED_TRACE("chunks " + std::to_string(p.num_chunks()) + ", L = " +
                     std::to_string(l) + ", time mode " + std::to_string(static_cast<int>(mode)));
        expect_lpndca_lockstep(w, p, l, weighting, mode, 6);
      }
    }
  }
}

TEST(FastPath, LPndcaRateWeightedLockstep) {
  for (const Surface surface : {Surface::kZgb, Surface::kPt100}) {
    SCOPED_TRACE(static_cast<int>(surface));
    expect_lpndca_matrix(surface, 16, ChunkWeighting::kRateWeighted);
  }
}

TEST(FastPath, LPndcaStructuralLockstep) {
  for (const Surface surface : {Surface::kZgb, Surface::kPt100}) {
    SCOPED_TRACE(static_cast<int>(surface));
    expect_lpndca_matrix(surface, 20, ChunkWeighting::kStructural);
  }
}

TEST(FastPath, LPndcaRepeatedSitesEndSpans) {
  // 6x6 under the default partition holds chunks of a handful of sites, and
  // L = 64 clips each step to one batch of 36 trials in one chunk: drawn
  // with replacement, most spans end at a repeated site.
  const Workload w = workload(Surface::kZgb, 6);
  const Partition p = make_partition(w.init.lattice(), w.model);
  LPndcaSimulator probe(w.model, w.init, p, 1, 64);
  ASSERT_TRUE(probe.blocks(0));
  for (const ChunkWeighting weighting :
       {ChunkWeighting::kStructural, ChunkWeighting::kRateWeighted}) {
    SCOPED_TRACE(static_cast<int>(weighting));
    expect_lpndca_lockstep(w, p, 64, weighting, TimeMode::kStochastic, 40);
  }
}

TEST(FastPath, LPndcaPassesCutAtRecurringHits) {
  // Diffusion at coverage 0.5 fires about a quarter of its trials, so
  // repeated sites of a batch piece are often both hits and a pass cuts
  // after the first. 6x6 at L = 64 clips each step to one batch of 36
  // trials in one chunk of a handful of sites; 20x20 at L = 300 runs a
  // batch of 300 trials in pieces of 256 and 44, then one of 100. The cut
  // decides which pass tallies a trial, so the per-site tallies are held to
  // the reference too.
  const std::pair<std::int32_t, std::uint32_t> runs[] = {{6, 64}, {20, 300}};
  for (const auto& [side, l] : runs) {
    const Workload w = workload(Surface::kDiffusion, side);
    const Partition p = make_partition(w.init.lattice(), w.model);
    ASSERT_TRUE(LPndcaSimulator(w.model, w.init, p, 1, l).blocks(0));
    for (const ChunkWeighting weighting :
         {ChunkWeighting::kStructural, ChunkWeighting::kRateWeighted}) {
      SCOPED_TRACE("side " + std::to_string(side) + ", weighting " +
                   std::to_string(static_cast<int>(weighting)));
      expect_lpndca_lockstep(w, p, l, weighting, TimeMode::kStochastic, 40, true);
    }
  }
}

/// One T-PNDCA step written out. Subset, type and a rate-weighted chunk
/// are each drawn from a cumulative table; the chunk table recounts the
/// chosen type's enabled sites per chunk from the lattice before every
/// sweep, and a structural chunk draw is uniform.
void reference_tpndca_step(Reference& r, const ReactionModel& model,
                           const std::vector<TypeSubset>& subsets, std::uint32_t sweeps,
                           ChunkWeighting weighting) {
  std::vector<double> cumulative;
  for (const TypeSubset& sub : subsets) {
    cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) + sub.total_rate);
  }
  for (std::uint32_t k = 0; k < sweeps; ++k) {
    const TypeSubset& sub = subsets[sample_cumulative(cumulative, uniform01(r.rng))];
    std::vector<double> rates;
    for (const ReactionIndex i : sub.types) {
      rates.push_back((rates.empty() ? 0.0 : rates.back()) + model.reaction(i).rate());
    }
    const ReactionType& rt = model.reaction(sub.types[sample_cumulative(rates, uniform01(r.rng))]);
    std::vector<double> counts(sub.chunks.num_chunks(), 0.0);  // cumulative
    double acc = 0;
    for (ChunkId c = 0; c < counts.size(); ++c) {
      if (weighting == ChunkWeighting::kRateWeighted) {
        for (const SiteIndex s : sub.chunks.chunk(c)) acc += rt.enabled(r.cfg, s);
      }
      counts[c] = acc;
    }
    const ChunkId c = static_cast<ChunkId>(acc > 0 ? sample_cumulative(counts, uniform01(r.rng))
                                                   : uniform_below(r.rng, counts.size()));
    for (const SiteIndex s : sub.chunks.chunk(c)) r.trial(rt, s);
    r.time += 1.0 / (model.total_rate() * static_cast<double>(sweeps));
  }
}

TEST(FastPath, TPndcaRateWeightedLockstep) {
  const Workload w = workload(Surface::kZgb, 32);
  const std::vector<TypeSubset> subsets = make_type_partition(w.init.lattice(), w.model);
  for (const ChunkWeighting weighting :
       {ChunkWeighting::kRateWeighted, ChunkWeighting::kStructural}) {
    SCOPED_TRACE(static_cast<int>(weighting));
    TPndcaSimulator sim(w.model, w.init, subsets, 19, weighting);
    Reference ref{w.init, Xoshiro256(19)};
    for (int step = 0; step < 30; ++step) {
      reference_tpndca_step(ref, w.model, subsets, sim.sweeps_per_step(), weighting);
      sim.mc_step();
      ASSERT_NO_FATAL_FAILURE(expect_same(of(ref), of(sim), step));
    }
  }
}

TEST(FastPath, CheckpointRoundTripStaysInLockstep) {
  // The rate cache is derived state: a restore rebuilds it from the
  // restored configuration, after which the run must still track the
  // reference bit for bit.
  const Workload w = workload(Surface::kZgb, 30);
  const Partition p = make_partition(w.init.lattice(), w.model);
  for (const ChunkPolicy policy :
       {ChunkPolicy::kRandomOrder, ChunkPolicy::kRateWeighted}) {
    SCOPED_TRACE(static_cast<int>(policy));
    ReferencePndca ref(w.model, w.init, {p}, 44, policy);
    PndcaSimulator sim(w.model, w.init, {p}, 44, policy);
    expect_lockstep(ref, sim, 10);

    StateWriter out;
    sim.save_state(out);
    // Same construction parameters, as the checkpoint contract requires.
    PndcaSimulator resumed(w.model, w.init, {p}, 44, policy);
    StateReader in(out.buffer());
    resumed.restore_state(in);
    expect_lockstep(ref, resumed, 15);
  }
}

TEST(FastPath, AuditIsCleanWhileActive) {
  // Rate-weighted PNDCA keeps its bitset and counts incrementally; a
  // brute-force audit mid-run must find nothing to repair.
  const Workload w = workload(Surface::kPt100, 24);
  PndcaSimulator sim(w.model, w.init, {make_partition(w.init.lattice(), w.model)}, 2,
                     ChunkPolicy::kRateWeighted);
  sim.advance_to(2.0);
  ASSERT_GT(sim.counters().executed, 0u);
  AuditReport report;
  sim.audit_derived_state(report, /*repair=*/false);
  EXPECT_TRUE(report.issues.empty()) << report.to_string();
}

TEST(FastPath, ProbesDoNotPerturbTheFastTrajectory) {
  // Metrics registry + spatial map attached to the simulator only; the
  // reference stays bare. Identical trajectories prove the probes read
  // without perturbing.
  const Workload w = workload(Surface::kZgb, 30);
  const Partition p = make_partition(w.init.lattice(), w.model);
  ReferencePndca ref(w.model, w.init, {p}, 13, ChunkPolicy::kRateWeighted);
  PndcaSimulator sim(w.model, w.init, {p}, 13, ChunkPolicy::kRateWeighted);
  obs::MetricsRegistry registry;
  obs::SpatialMap map(w.init.size());
  sim.attach({&registry, nullptr, &map});
  expect_lockstep(ref, sim, 20);
  EXPECT_EQ(map.total_attempts(), sim.counters().trials);
  EXPECT_EQ(map.total_fires(), sim.counters().executed);
  std::uint64_t written = 0;  // one rate recheck per written site of every execution
  for (ReactionIndex t = 0; t < w.model.num_reactions(); ++t) {
    for (const Transform& tr : w.model.reaction(t).transforms()) {
      written += tr.tg != kKeep ? sim.counters().executed_per_type[t] : 0;
    }
  }
  EXPECT_EQ(registry.counter("pndca/rate_rechecks").value(), written);
}

// --- The trial kernel ------------------------------------------------------

/// `count` adsorption types with distinct rates. 16 and 17 types sit on
/// either side of the draw lanes' register tables; 70 is more types than
/// one bitset word holds, so the kernel must not assume <= 64.
ReactionModel adsorption_types(int count) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  for (int i = 0; i < count; ++i) {
    m.add(ReactionType("ads" + std::to_string(i), 1.0 + 0.37 * i, {exact({0, 0}, 0, 1)}));
  }
  return m;
}

/// Scattered site lists of every length the lane loop splits differently:
/// empty, every length up to two lane blocks and one past, and long.
std::vector<std::vector<SiteIndex>> site_lists(SiteIndex num_sites) {
  std::vector<std::vector<SiteIndex>> lists;
  for (const std::size_t n :
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 65, 1000}) {
    std::vector<SiteIndex>& sites = lists.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      sites[i] = static_cast<SiteIndex>((i * 7919 + 13) % num_sites);
    }
  }
  return lists;
}

TEST(SampleTypes, MatchesThePerSiteReference) {
  // ZGB and 16 types take the register tables, 17 and 70 types the gathers.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const ReactionModel sixteen = adsorption_types(16);
  const ReactionModel seventeen = adsorption_types(17);
  const ReactionModel wide = adsorption_types(70);
  for (const ReactionModel* model :
       {&std::as_const(zgb.model), &sixteen, &seventeen, &wide}) {
    SCOPED_TRACE(model->num_reactions());
    for (const std::uint64_t seed : {3u, 0x5eedu}) {
      for (const std::uint64_t sweep : {1u, 2u, 977u}) {
        for (const std::vector<SiteIndex>& list : site_lists(4096)) {
          // From the list's start and from one past it, off the lane grid.
          for (std::size_t at = 0; at <= std::min<std::size_t>(1, list.size()); ++at) {
            const std::span<const SiteIndex> sites = std::span(list).subspan(at);
            std::vector<ReactionIndex> types(sites.size());
            sample_types(sweep, CounterRng::seed_hash(seed), sites.data(), sites.size(),
                         model->alias_table(), types.data());
            for (std::size_t i = 0; i < sites.size(); ++i) {
              ASSERT_EQ(types[i], reference_type(*model, seed, sweep, sites[i]))
                  << "seed " << seed << " sweep " << sweep << " n " << sites.size()
                  << " i " << i;
            }
          }
        }
      }
    }
  }
}

/// The inverse of mix64: each xorshift undone by its own shifts, each
/// multiply by the constant's inverse mod 2^64 (Newton's iteration).
std::uint64_t unmix64(std::uint64_t z) {
  const auto inverse = [](std::uint64_t a) {
    std::uint64_t x = a;  // right to 3 bits; each step doubles them
    for (int k = 0; k < 5; ++k) x *= 2 - a * x;
    return x;
  };
  z ^= (z >> 31) ^ (z >> 62);
  z *= inverse(0x94d049bb133111ebULL);
  z ^= (z >> 27) ^ (z >> 54);
  z *= inverse(0xbf58476d1ce4e5b9ULL);
  return z ^ (z >> 30) ^ (z >> 60);
}

TEST(SampleTypes, ZeroWeightTypesStayUnreachable) {
  // Every slot of tables with zero-weight entries, driven with the flip
  // words 0 and 2^32 - 1: through sample_bits, and through lane j of
  // sample_types and sample_trials, whose seed hash is solved for so that
  // the lane's first output is exactly the word. A column that ends at
  // probability 1 has the threshold 2^32 - 1, so the top flip word reads
  // its alias: it must be the column itself, never type 0.
  const std::vector<double> small = {0.0, 1.0, 2.0, 0.0, 3.0};
  std::vector<double> wide(20, 0.0);
  for (std::size_t i = 1; i < wide.size(); i += 3) wide[i] = 0.5 + static_cast<double>(i);
  const std::vector<SiteIndex> sites = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
  ASSERT_EQ(unmix64(mix64(0x0123456789abcdefULL)), 0x0123456789abcdefULL);
  for (const std::vector<double>* weights : {&small, &std::as_const(wide)}) {
    const AliasTable alias(*weights);
    const std::uint64_t size = alias.size();
    SCOPED_TRACE(size);
    for (std::uint64_t slot = 0; slot < size; ++slot) {
      const std::uint64_t hi = ((slot << 32) + size - 1) / size;  // least hi of the slot
      for (const std::uint64_t flip : {0ULL, 0xffffffffULL}) {
        const std::uint64_t r = (hi << 32) | flip;
        const std::size_t want =
            flip < alias.threshold_data()[slot] ? slot : alias.alias_data()[slot];
        ASSERT_EQ(alias.sample_bits(r), want) << "slot " << slot << " flip " << flip;
        ASSERT_GT((*weights)[want], 0.0) << "slot " << slot << " flip " << flip;
        // The stream word whose first output is r, less the lane's key.
        const std::uint64_t word = unmix64(r) - 0x9e3779b97f4a7c15ULL;
        for (const std::size_t lane : {0u, 5u, 7u, 8u, 15u}) {
          std::vector<ReactionIndex> types(sites.size());
          sample_types(11, word ^ mix64(CounterRng::step_word(11) + sites[lane]),
                       sites.data(), sites.size(), alias, types.data());
          ASSERT_EQ(types[lane], want) << "sample_types, slot " << slot << ", flip " << flip;
          std::vector<std::uint64_t> draws(sites.size());
          sample_trials(11, word ^ mix64(CounterRng::step_word(11) + 40 + lane), 40,
                        sites.size(), alias, types.data(), draws.data());
          ASSERT_EQ(types[lane], want) << "sample_trials, slot " << slot << ", flip " << flip;
        }
      }
    }
  }
}

TEST(SampleTypes, BitsProbabilitiesAreExact) {
  // {1, 3}: two slots of 2^31 high halves; column 0 keeps the low halves
  // below 2^31, column 1 is full. {1, 1, 1}: the multiply-shift gives slot
  // 0 the high halves [0, ceil(2^32 / 3)), one more than each other slot.
  EXPECT_EQ(AliasTable({1.0, 3.0}).bits_probabilities(), (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(AliasTable({1.0, 1.0, 1.0}).bits_probabilities(),
            (std::vector<double>{1431655766 * 0x1.0p-32, 1431655765 * 0x1.0p-32,
                                 1431655765 * 0x1.0p-32}));
  // The bundled models' shares, to well inside the bound PNDCA checks.
  for (const ReactionModel& model :
       {models::make_zgb(models::ZgbParams::from_y(0.45, 20.0)).model,
        models::make_pt100().model, models::make_diffusion(1.0).model,
        models::make_ising(1.0).model}) {
    const std::vector<double> drawn = model.alias_table().bits_probabilities();
    for (std::size_t i = 0; i < model.num_reactions(); ++i) {
      const double share = model.reactions()[i].rate() / model.total_rate();
      EXPECT_NEAR(drawn[i] / share, 1.0, 1e-6) << model.reactions()[i].name();
    }
  }
}

TEST(SampleTypes, StiffModelsAreRefusedByThePndcaFamily) {
  // A share under 2^-32 / |T| gets threshold 0, so the 32-bit flip never
  // draws it; a share of 1e-8 of two types gets threshold 85 for
  // 2 * 1e-8 * 2^32 = 85.9, about 1% short. The 53-bit double flip of RSM
  // and NDCA draws both; the trial kernels' users refuse them by name.
  const auto stiff = [](double slow) {
    ReactionModel m(SpeciesSet({"*", "A"}));
    m.add(ReactionType("fast", 1.0, {exact({0, 0}, 0, 1)}));
    m.add(ReactionType("slow", slow, {exact({0, 0}, 0, 1)}));
    return m;
  };
  const Configuration init(Lattice(10, 10), 2, 0);
  const Partition part = make_partition(init.lattice(), stiff(1.0));
  for (const double slow : {1e-12, 1e-8}) {
    SCOPED_TRACE(slow);
    const ReactionModel model = stiff(slow);
    EXPECT_EQ(model.alias_table().bits_probabilities()[1] == 0.0, slow < 0x1.0p-33);
    const auto refused = [&](const auto& build) {
      try {
        build();
      } catch (const std::invalid_argument& e) {
        return std::string(e.what()).find("reaction 'slow'") != std::string::npos;
      }
      return false;
    };
    EXPECT_TRUE(refused([&] { PndcaSimulator(model, init, {part}, 3); }));
    EXPECT_TRUE(refused([&] {
      PndcaSimulator(model, init, {part}, 3, ChunkPolicy::kRandomOrder,
                     TimeMode::kStochastic, 2);
    }));
    EXPECT_TRUE(refused([&] { LPndcaSimulator(model, init, part, 3, 1); }));
    EXPECT_NO_THROW(RsmSimulator(model, init, 3));
    EXPECT_NO_THROW(NdcaSimulator(model, init, 3));
  }
  // A share of 1e-5 is drawn within 2^-32 / (2 * 1e-5), about 1.2e-5, of
  // itself, and accepted.
  const ReactionModel resolved = stiff(1e-5);
  EXPECT_NO_THROW(PndcaSimulator(resolved, init, {part}, 3));
  EXPECT_NO_THROW(LPndcaSimulator(resolved, init, part, 3, 1));
}

TEST(SampleTypes, BatchTrialsIsTheFilteredKernel) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  Configuration cfg(Lattice(64, 64), 3, zgb.vacant);
  Xoshiro256 rng(17);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    cfg.set(s, static_cast<Species>(uniform_below(rng, 3)));
  }
  const SpeciesBitplanes planes(cfg);
  const ProbePlans probes(zgb.model, 64, 64);
  EnabledTypeSet enabled;
  enabled.rebuild(planes, probes);
  const std::uint64_t seed_hash = CounterRng::seed_hash(9);
  for (const std::vector<SiteIndex>& sites : site_lists(cfg.size())) {
    std::vector<ReactionIndex> types(sites.size());
    sample_types(5, seed_hash, sites.data(), sites.size(), zgb.model.alias_table(),
                 types.data());
    std::vector<TrialHit> hits(sites.size());
    hits.resize(batch_trials(5, seed_hash, sites.data(), sites.size(),
                             zgb.model.alias_table(), enabled, hits.data()));
    std::vector<std::pair<std::uint32_t, ReactionIndex>> got, want;
    for (const TrialHit& h : hits) got.emplace_back(h.index, h.type);
    for (std::uint32_t i = 0; i < sites.size(); ++i) {
      if (enabled.test(sites[i], types[i])) want.emplace_back(i, types[i]);
    }
    EXPECT_EQ(got, want) << "n " << sites.size();
  }
}

TEST(SampleTrials, LanesMatchTheScalarLanesAndTheStreams) {
  // The 8 lanes against the scalar lanes, both called directly, and both
  // against each trial's own stream word: first output the type, second
  // raw. Spans of every length 0-17 from first indices off the lane grid,
  // plus a whole block and indices past 2^32, for register (ZGB, 16 types)
  // and gathered (17, 70 types) alias tables.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const ReactionModel sixteen = adsorption_types(16);
  const ReactionModel seventeen = adsorption_types(17);
  const ReactionModel wide = adsorption_types(70);
  for (const ReactionModel* model :
       {&std::as_const(zgb.model), &sixteen, &seventeen, &wide}) {
    SCOPED_TRACE(model->num_reactions());
    for (const std::uint64_t seed : {3u, 0x5eedu}) {
      const std::uint64_t seed_hash = CounterRng::seed_hash(seed);
      for (const std::uint64_t step : {0u, 1u, 977u}) {
        for (const std::uint64_t first : {0ull, 1ull, 5ull, 13ull, 250ull, 4294967290ull}) {
          for (std::size_t n = 0; n <= 256; n = n < 17 ? n + 1 : 256 + (n == 256)) {
            std::vector<ReactionIndex> types(n), scalar_types(n);
            std::vector<std::uint64_t> draws(n), scalar_draws(n);
            sample_trials(step, seed_hash, first, n, model->alias_table(), types.data(),
                          draws.data());
            sample_trials_scalar(step, seed_hash, first, n, model->alias_table(),
                                 scalar_types.data(), scalar_draws.data());
            ASSERT_EQ(types, scalar_types) << "step " << step << " first " << first << " n " << n;
            ASSERT_EQ(draws, scalar_draws) << "step " << step << " first " << first << " n " << n;
            for (std::size_t i = 0; i < n; ++i) {
              const std::uint64_t word = stream_word(seed, step, first + i);
              ASSERT_EQ(types[i], type_of(model->alias_table(), word))
                  << "trial " << first + i;
              ASSERT_EQ(draws[i], CounterRng::nth(word, 2)) << "trial " << first + i;
            }
          }
        }
      }
    }
  }
}

TEST(ChunkSites, MatchTheMultiplyShiftAndTheChunkList) {
  // chunk_position against the 128-bit multiply-shift, and chunk_sites
  // against chunk[that position] for every n in 0..256 from lane offsets 0, 1
  // and 5. The chunk lists hold scattered sites so that a gather from the
  // wrong position shows. Sizes from 2^31 up cannot be allocated; their
  // draws are scaled so that every position falls in a list of 1024 sites,
  // which is all the lanes read.
  __extension__ using u128 = unsigned __int128;
  const std::vector<std::uint64_t> edges = {0,
                                            1,
                                            0xffffffffull,
                                            0x100000000ull,
                                            0x8000000000000000ull,
                                            0xfffffffffffffffeull,
                                            0xffffffffffffffffull,
                                            0xffffffff00000000ull,
                                            0x00000000ffffffffull};
  Xoshiro256 rng(41);
  for (const std::uint32_t size : {1u, 2u, 3u, 7u, 1280u, 50000u, 65536u, 0x80000000u,
                                   0xffffffffu}) {
    const bool huge = size > 65536;
    const std::size_t listed = huge ? 1024 : size;
    std::vector<SiteIndex> chunk(listed);
    for (std::size_t k = 0; k < listed; ++k) {
      chunk[k] = static_cast<SiteIndex>((k * 7919 + 13) % 1000003);
    }
    std::vector<std::uint64_t> draws = edges;
    while (draws.size() < 300) draws.push_back(rng());
    const auto position = [size](std::uint64_t d) {
      return static_cast<std::uint32_t>((static_cast<u128>(d) * size) >> 64);
    };
    for (const std::uint64_t d : draws) {
      ASSERT_LT(position(d), size);
      ASSERT_EQ(chunk_position(d, size), position(d)) << "draw " << d;
    }
    if (huge) {
      for (std::uint64_t& d : draws) d %= std::uint64_t{listed - 1} << 32;
    }
    std::vector<SiteIndex> want(draws.size());
    for (std::size_t i = 0; i < draws.size(); ++i) {
      ASSERT_LT(position(draws[i]), listed);
      want[i] = chunk[position(draws[i])];
    }
    for (const std::size_t at : {0u, 1u, 5u}) {
      for (std::size_t n = 0; n <= 256; ++n) {
        std::vector<SiteIndex> got(n);
        chunk_sites(draws.data() + at, n, chunk.data(), size, got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               want.begin() + static_cast<std::ptrdiff_t>(at)))
            << "size " << size << " at " << at << " n " << n;
      }
    }
  }
}

/// The cut written out: the first k whose hit's site occurs after it.
std::size_t reference_cut(const std::vector<SiteIndex>& sites,
                          const std::vector<std::uint32_t>& hits) {
  for (std::size_t k = 0; k < hits.size(); ++k) {
    for (std::size_t j = hits[k] + 1; j < sites.size(); ++j) {
      if (sites[j] == sites[hits[k]]) return k;
    }
  }
  return hits.size();
}

TEST(FirstRecurringHit, CutsAtTheFirstHitWhoseSiteRecurs) {
  // Distinct sites with one planted repeat at every (hit, later index) pair,
  // the last lane of every register included, must cut at that hit; a
  // repeat whose earlier trial failed, and no repeat, must not cut. Then
  // spans over a few sites, with many repeats, against the reference.
  Xoshiro256 rng(7);
  for (const std::size_t n :
       {1u, 2u, 7u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 100u, 255u, 256u}) {
    std::vector<SiteIndex> distinct(n);
    for (std::size_t i = 0; i < n; ++i) {
      distinct[i] = static_cast<SiteIndex>((i * 7919 + 13) % 65521);
    }
    for (const std::uint64_t percent : {30u, 100u}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", " + std::to_string(percent) + "% hits");
      std::vector<std::uint32_t> hits;
      std::vector<bool> hit(n, false);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (uniform_below(rng, 100) < percent) {
          hits.push_back(i);
          hit[i] = true;
        }
      }
      ASSERT_EQ(first_recurring_hit(distinct.data(), n, hits.data(), hits.size()),
                hits.size());
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = static_cast<std::size_t>(
            std::lower_bound(hits.begin(), hits.end(), i) - hits.begin());
        for (std::size_t j = i + 1; j < n; ++j) {
          std::vector<SiteIndex> sites = distinct;
          sites[j] = sites[i];
          ASSERT_EQ(first_recurring_hit(sites.data(), n, hits.data(), hits.size()),
                    hit[i] ? k : hits.size())
              << "repeat of trial " << i << " at " << j;
        }
      }
    }
  }
  for (int round = 0; round < 2000; ++round) {
    const auto n = static_cast<std::size_t>(uniform_below(rng, 257));
    const auto domain = static_cast<SiteIndex>(1 + uniform_below(rng, 400));
    std::vector<SiteIndex> sites(n);
    for (SiteIndex& s : sites) s = static_cast<SiteIndex>(uniform_below(rng, domain));
    std::vector<std::uint32_t> hits;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (uniform_below(rng, 4) == 0) hits.push_back(i);
    }
    ASSERT_EQ(first_recurring_hit(sites.data(), n, hits.data(), hits.size()),
              reference_cut(sites, hits))
        << "round " << round << ", n " << n << ", " << domain << " sites";
  }
}

// --- The span kernel -------------------------------------------------------

/// The models the span kernel is held to ReactionType::enabled on: the
/// surfaces above, diffusion, the 70-type model, and a model with a
/// never-enabled type and a type enabled everywhere.
enum class KernelModel { kZgb, kPt100, kDiffusion, kIsing, kSeventy, kEdgeCases };

/// Two species; "ghost" requires a species outside the domain at (1, 0),
/// so it can never fire, and "idle" requires any species and writes none,
/// so ProbePlans keeps no probe for it and it is enabled everywhere.
ReactionModel edge_case_types() {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("ghost", 2.0, {exact({0, 0}, 0, 1), require({1, 0}, SpeciesMask{1} << 5)}));
  m.add(ReactionType("idle", 0.5, {require({0, 0}, 0b11)}));
  m.add(ReactionType("hop", 1.5, {exact({0, 0}, 1, 0), exact({0, 1}, 0, 1)}));
  return m;
}

ReactionModel kernel_model(KernelModel which) {
  switch (which) {
    case KernelModel::kZgb:
      return models::make_zgb(models::ZgbParams::from_y(0.45, 10.0)).model;
    case KernelModel::kPt100:
      return models::make_pt100().model;
    case KernelModel::kDiffusion:
      return models::make_diffusion().model;
    case KernelModel::kIsing:
      return models::make_ising(0.7).model;
    case KernelModel::kSeventy:
      return adsorption_types(70);
    case KernelModel::kEdgeCases:
      break;
  }
  return edge_case_types();
}

/// A mid-run state: uniformly random species, then `steps` PNDCA steps.
Configuration mid_run(const ReactionModel& model, const Lattice& lat, std::uint64_t seed,
                      int steps) {
  Configuration cfg(lat, model.species().size(), 0);
  Xoshiro256 rng(seed);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    cfg.set(s, static_cast<Species>(uniform_below(rng, model.species().size())));
  }
  if (steps == 0) return cfg;
  PndcaSimulator sim(model, std::move(cfg), {make_partition(lat, model)}, seed);
  for (int i = 0; i < steps; ++i) sim.mc_step();
  return sim.configuration();
}

/// Where enabled_trials or its scalar lanes leave ReactionType::enabled on
/// the span, or "" when both match it trial for trial.
std::string span_mismatch(const ReactionModel& model, const ProbePlans& probes,
                          const Configuration& cfg, const SiteIndex* sites,
                          const ReactionIndex* types, std::size_t n) {
  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (model.reaction(types[i]).enabled(cfg, sites[i])) want.push_back(i);
  }
  std::vector<std::uint32_t> lanes(n), scalar(n);
  lanes.resize(enabled_trials(probes, cfg, sites, types, n, lanes.data()));
  scalar.resize(enabled_trials_scalar(probes, cfg, sites, types, n, scalar.data()));
  for (const auto& [name, got] : {std::pair{"lanes", &lanes}, std::pair{"scalar", &scalar}}) {
    if (*got == want) continue;
    std::size_t k = 0;
    while (k < got->size() && k < want.size() && (*got)[k] == want[k]) ++k;
    const std::uint32_t i = k < want.size() ? want[k] : (*got)[k];
    return std::string(name) + " differ at trial " + std::to_string(i) + " (site " +
           std::to_string(sites[i]) + ", type " + model.reaction(types[i]).name() +
           ") of a span of " + std::to_string(n);
  }
  return "";
}

struct KernelCase {
  const char* name;
  KernelModel model;
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

class SpanKernel : public ::testing::TestWithParam<KernelCase> {};

TEST_P(SpanKernel, MatchesEnabledTrialForTrial) {
  const ReactionModel model = kernel_model(GetParam().model);
  // 30x30 fills whole 4-byte words; 5x5, 7x7 and 3x1 end in a partial one;
  // 2x2 and 3x1 alias offsets; 1x9 has width 1; 9x1 and 2x2 have fewer
  // sites than a lane block.
  const std::pair<std::int32_t, std::int32_t> shapes[] = {
      {30, 30}, {5, 5}, {7, 7}, {3, 1}, {2, 2}, {1, 9}, {9, 1}};
  for (const auto& [w, h] : shapes) {
    SCOPED_TRACE(std::to_string(w) + " x " + std::to_string(h));
    const Lattice lat(w, h);
    // Simulators refuse the edge-case model (its ghost mask names a species
    // outside the domain), so its state stays random.
    const Configuration cfg =
        mid_run(model, lat, 11, GetParam().model == KernelModel::kEdgeCases ? 0 : 3);
    const ProbePlans probes(model, w, h);
    std::vector<SiteIndex> all(lat.size());
    for (SiteIndex s = 0; s < lat.size(); ++s) all[s] = s;

    // Every (site, type) pair.
    for (ReactionIndex t = 0; t < model.num_reactions(); ++t) {
      const std::vector<ReactionIndex> types(all.size(), t);
      ASSERT_EQ(span_mismatch(model, probes, cfg, all.data(), types.data(), all.size()), "");
    }

    // Sampled types: spans of every length 0-17 at every start, and the
    // whole chunks of the configuration's partition.
    const std::uint64_t seed_hash = CounterRng::seed_hash(29);
    std::vector<ReactionIndex> types(all.size());
    for (const std::uint64_t sweep : {1u, 2u, 3u}) {
      sample_types(sweep, seed_hash, all.data(), all.size(), model.alias_table(),
                   types.data());
      for (std::size_t len = 0; len <= 17; ++len) {
        for (std::size_t at = 0; at + len <= all.size(); ++at) {
          ASSERT_EQ(span_mismatch(model, probes, cfg, all.data() + at, types.data() + at,
                                  len),
                    "");
        }
      }
      const Partition p = make_partition(lat, model);
      for (ChunkId c = 0; c < p.num_chunks(); ++c) {
        const std::vector<SiteIndex>& sites = p.chunk(c);
        std::vector<ReactionIndex> chunk_types(sites.size());
        sample_types(sweep, seed_hash, sites.data(), sites.size(), model.alias_table(),
                     chunk_types.data());
        ASSERT_EQ(span_mismatch(model, probes, cfg, sites.data(), chunk_types.data(),
                                sites.size()),
                  "");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, SpanKernel,
    ::testing::Values(KernelCase{"zgb", KernelModel::kZgb},
                      KernelCase{"pt100", KernelModel::kPt100},
                      KernelCase{"diffusion", KernelModel::kDiffusion},
                      KernelCase{"ising", KernelModel::kIsing},
                      KernelCase{"seventy_types", KernelModel::kSeventy},
                      KernelCase{"edge_cases", KernelModel::kEdgeCases}),
    [](const auto& c) { return std::string(c.param.name); });

/// `count` exchange types, each with a two-site pattern: 16 of them hold
/// 16 types and 32 probes; 8 hold 8 types and 16 probes.
ReactionModel exchange_types(int count) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  for (int i = 0; i < count; ++i) {
    m.add(ReactionType("swap" + std::to_string(i), 1.0 + 0.5 * i,
                       {exact({0, 0}, 0, 1), exact({1 + i % 3, i / 3}, 1, 0)}));
  }
  return m;
}

TEST(LaneTable, HoldsTheProbePlansItIsBuiltFrom) {
  // ZGB, 16 one-probe types and 8 two-probe types fill the register
  // columns; Ising (32 types), 17 one-probe types and 16 two-probe types
  // (32 probes) do not, and keep only the round count.
  const ReactionModel zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0)).model;
  const ReactionModel ising = models::make_ising(0.7).model;
  const ReactionModel sixteen = adsorption_types(16);
  const ReactionModel seventeen = adsorption_types(17);
  const ReactionModel eight_pairs = exchange_types(8);
  const ReactionModel sixteen_pairs = exchange_types(16);
  using Lanes = ProbePlans::LaneTable;
  for (const ReactionModel* model :
       {&zgb, &ising, &sixteen, &eight_pairs, &seventeen, &sixteen_pairs}) {
    SCOPED_TRACE(model->reaction(0).name() + " x " + std::to_string(model->num_reactions()));
    const ProbePlans plans(*model, 30, 30);
    const Lanes& lanes = plans.lanes();
    std::uint32_t rounds = 0;
    for (const ProbePlans::TypeSpan& ts : plans.types()) rounds = std::max(rounds, ts.count);
    EXPECT_EQ(lanes.rounds, rounds);
    const bool fits =
        plans.types().size() <= Lanes::kWords && plans.probes().size() <= Lanes::kWords;
    EXPECT_EQ(lanes.in_registers, fits);
    EXPECT_EQ(fits, model == &zgb || model == &sixteen || model == &eight_pairs);
    for (std::size_t w = 0; w < Lanes::kWords; ++w) {
      const bool type = fits && w < plans.types().size();
      const bool probe = fits && w < plans.probes().size();
      EXPECT_EQ(lanes.columns[Lanes::kFirst][w], type ? plans.types()[w].first : 0u) << w;
      EXPECT_EQ(lanes.columns[Lanes::kCount][w], type ? plans.types()[w].count : 0u) << w;
      EXPECT_EQ(lanes.columns[Lanes::kDx][w],
                probe ? static_cast<std::uint32_t>(plans.probes()[w].dx) : 0u) << w;
      EXPECT_EQ(lanes.columns[Lanes::kDy][w],
                probe ? static_cast<std::uint32_t>(plans.probes()[w].dy) : 0u) << w;
      EXPECT_EQ(lanes.columns[Lanes::kMask][w], probe ? plans.probes()[w].mask : 0u) << w;
    }
  }
}

}  // namespace
}  // namespace casurf
