// Google-benchmark microbenchmarks: per-trial / per-event throughput of
// every simulator on the ZGB workload (the per-event DMC benches on Pt(100)
// too), plus the primitive operations on the hot path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.hpp"
#include "ca/fastpath.hpp"
#include "ca/lpndca.hpp"
#include "ca/ndca.hpp"
#include "ca/pndca.hpp"
#include "ca/tpndca.hpp"
#include "core/simulation.hpp"
#include "dmc/frm.hpp"
#include "dmc/rsm.hpp"
#include "dmc/vssm.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "partition/coloring.hpp"
#include "rng/counter_rng.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace {

using namespace casurf;

// Side 80 (not 64): the canonical five-chunk linear form needs the side
// divisible by 5, otherwise Partition::linear_form rejects the lattice.
constexpr std::int32_t kSide = 80;

const models::ZgbModel& zgb() {
  static const models::ZgbModel model =
      models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  return model;
}

Configuration initial() { return Configuration(Lattice(kSide, kSide), 3, zgb().vacant); }

void BM_RsmMcStep(benchmark::State& state) {
  RsmSimulator sim(zgb().model, initial(), 1);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_RsmMcStep)->Unit(benchmark::kMicrosecond);

void BM_NdcaMcStep(benchmark::State& state) {
  NdcaSimulator sim(zgb().model, initial(), 2);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_NdcaMcStep)->Unit(benchmark::kMicrosecond);

void BM_PndcaMcStep(benchmark::State& state) {
  const Lattice lat(kSide, kSide);
  PndcaSimulator sim(zgb().model, initial(),
                     {Partition::linear_form(lat, 1, 3, 5)}, 3);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_PndcaMcStep)->Unit(benchmark::kMicrosecond);

// The arguments are L and the side, from the vacant lattice. At side 80 a
// chunk holds 1,280 sites and the lattice fits in L1: L = 1 runs one-trial
// spans, 64 and 1000 run batch pieces through the 8-lane passes. Side 500
// at L = 100 is the ledger's lpndca geometry, with chunks of 50,000 sites.
void BM_LPndcaMcStep(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(1));
  const Lattice lat(side, side);
  LPndcaSimulator sim(zgb().model, Configuration(lat, 3, zgb().vacant),
                      Partition::linear_form(lat, 1, 3, 5), 4,
                      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_LPndcaMcStep)
    ->ArgNames({"L", "side"})
    ->Args({1, kSide})
    ->Args({64, kSide})
    ->Args({1000, kSide})
    ->Args({100, 500})
    ->Unit(benchmark::kMicrosecond);

void BM_TPndcaMcStep(benchmark::State& state) {
  const Lattice lat(kSide, kSide);
  TPndcaSimulator sim(zgb().model, initial(), make_type_partition(lat, zgb().model), 5);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_TPndcaMcStep)->Unit(benchmark::kMicrosecond);

// Rate-weighted chunk selection (paper's policy 4). "Cached" is the
// incremental enabled-rate cache; "BruteRescan" reproduces the previous
// per-step cost by recomputing every chunk weight from the configuration
// before each step (the old plan_schedule did exactly this O(N |T|) scan).
// The ratio of the two is the cache's step-throughput improvement.
//
// Both variants restart every iteration from the same pre-equilibrated
// snapshot with the same seed, so they time the exact same trajectory —
// without this the simulator state drifts across iterations and the two
// benchmarks end up sampling different (cheaper/dearer) phases of the run.
Configuration equilibrated(const ReactionModel& model, Configuration fresh,
                           const Partition& p, int warm_steps) {
  PndcaSimulator sim(model, std::move(fresh), {p}, 10, ChunkPolicy::kRateWeighted);
  for (int i = 0; i < warm_steps; ++i) sim.mc_step();
  return sim.configuration();
}

constexpr int kRateWeightedMeasureSteps = 5;

void rate_weighted_pair(benchmark::State& state, const ReactionModel& model,
                        const Configuration& start, const Partition& p,
                        bool brute_rescan, TimeMode time_mode = TimeMode::kStochastic) {
  std::vector<double> weights(p.num_chunks());
  std::uint64_t trials = 0;
  for (auto _ : state) {
    state.PauseTiming();
    PndcaSimulator sim(model, start, {p}, 10, ChunkPolicy::kRateWeighted, time_mode);
    state.ResumeTiming();
    for (int i = 0; i < kRateWeightedMeasureSteps; ++i) {
      if (brute_rescan) {
        for (ChunkId c = 0; c < p.num_chunks(); ++c) {
          weights[c] = sim.enabled_rate_in_chunk(p, c);
        }
        benchmark::DoNotOptimize(weights.data());
      }
      sim.mc_step();
    }
    trials += sim.counters().trials;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trials));
}

void BM_PndcaRateWeightedCached(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Lattice lat(side, side);
  const Partition p = Partition::linear_form(lat, 1, 3, 16);
  const Configuration start =
      equilibrated(zgb().model, Configuration(lat, 3, zgb().vacant), p, 20);
  rate_weighted_pair(state, zgb().model, start, p, false);
}
BENCHMARK(BM_PndcaRateWeightedCached)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_PndcaRateWeightedBruteRescan(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Lattice lat(side, side);
  const Partition p = Partition::linear_form(lat, 1, 3, 16);
  const Configuration start =
      equilibrated(zgb().model, Configuration(lat, 3, zgb().vacant), p, 20);
  rate_weighted_pair(state, zgb().model, start, p, true);
}
BENCHMARK(BM_PndcaRateWeightedBruteRescan)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// Same pair on Pt(100), whose ~5x larger reaction-type set is where the
// old O(N |T|) rescan truly dominated the step.
void BM_Pt100RateWeightedCached(benchmark::State& state) {
  static const models::Pt100Model pt = models::make_pt100();
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Lattice lat(side, side);
  const Partition p = Partition::linear_form(lat, 1, 3, 16);
  const Configuration start =
      equilibrated(pt.model, Configuration(lat, 5, pt.hex_vac), p, 30);
  rate_weighted_pair(state, pt.model, start, p, false);
}
BENCHMARK(BM_Pt100RateWeightedCached)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_Pt100RateWeightedBruteRescan(benchmark::State& state) {
  static const models::Pt100Model pt = models::make_pt100();
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Lattice lat(side, side);
  const Partition p = Partition::linear_form(lat, 1, 3, 16);
  const Configuration start =
      equilibrated(pt.model, Configuration(lat, 5, pt.hex_vac), p, 30);
  rate_weighted_pair(state, pt.model, start, p, true);
}
BENCHMARK(BM_Pt100RateWeightedBruteRescan)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_LPndcaRateWeightedMcStep(benchmark::State& state) {
  const Lattice lat(kSide, kSide);
  LPndcaSimulator sim(zgb().model, initial(), Partition::linear_form(lat, 1, 3, 5),
                      11, 64, TimeMode::kStochastic, ChunkWeighting::kRateWeighted);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_LPndcaRateWeightedMcStep)->Unit(benchmark::kMicrosecond);

void BM_TPndcaRateWeightedMcStep(benchmark::State& state) {
  const Lattice lat(kSide, kSide);
  TPndcaSimulator sim(zgb().model, initial(), make_type_partition(lat, zgb().model),
                      12, ChunkWeighting::kRateWeighted);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_TPndcaRateWeightedMcStep)->Unit(benchmark::kMicrosecond);

void BM_ParallelPndcaMcStep(benchmark::State& state) {
  const Lattice lat(kSide, kSide);
  PndcaSimulator sim(zgb().model, initial(), {Partition::linear_form(lat, 1, 3, 5)}, 6,
                     ChunkPolicy::kRandomOrder, TimeMode::kStochastic,
                     static_cast<unsigned>(state.range(0)));
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().trials));
}
BENCHMARK(BM_ParallelPndcaMcStep)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

// The trial loop on the rate-weighted Pt(100) configuration at 256x256 —
// the workload where the per-trial pattern match dominates the step
// unless the trial test reads the rate cache's bitset. Deterministic time
// mode keeps the clock out of the measurement; stochastic time would add
// one Gamma draw per chunk sweep.
void BM_Pt100TrialLoop(benchmark::State& state) {
  static const models::Pt100Model pt = models::make_pt100();
  const auto side = static_cast<std::int32_t>(state.range(0));
  const Lattice lat(side, side);
  const Partition p = Partition::linear_form(lat, 1, 3, 16);
  const Configuration start =
      equilibrated(pt.model, Configuration(lat, 5, pt.hex_vac), p, 10);
  rate_weighted_pair(state, pt.model, start, p, false, TimeMode::kDeterministic);
}
BENCHMARK(BM_Pt100TrialLoop)->Arg(256)->Unit(benchmark::kMillisecond);

enum class EventModel { kZgb, kPt100 };

struct EventWorkload {
  const ReactionModel& model;
  Configuration start;
};

// The per-event DMC workloads: ZGB from the vacant lattice, and Pt(100) —
// 39 reaction types, where the rechecks after each event dominate its
// cost — from a mixed-phase state ten PNDCA steps in. The argument is the
// side: at 80 the enabled sets' and the pair index's entries stay in
// cache, at 1000 (the North star's size and above) most recheck visits
// miss it.
EventWorkload event_workload(EventModel m, std::int32_t side) {
  const Lattice lat(side, side);
  if (m == EventModel::kZgb) return {zgb().model, Configuration(lat, 3, zgb().vacant)};
  static const models::Pt100Model pt = models::make_pt100();
  return {pt.model, equilibrated(pt.model, Configuration(lat, 5, pt.hex_vac),
                                 make_partition(lat, pt.model), 10)};
}

void BM_VssmEvent(benchmark::State& state, EventModel m) {
  EventWorkload w = event_workload(m, static_cast<std::int32_t>(state.range(0)));
  VssmSimulator sim(w.model, std::move(w.start), 7);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().executed));
}
BENCHMARK_CAPTURE(BM_VssmEvent, zgb, EventModel::kZgb)->Arg(80)->Arg(1000);
BENCHMARK_CAPTURE(BM_VssmEvent, pt100, EventModel::kPt100)->Arg(80)->Arg(1000);

void BM_FrmEvent(benchmark::State& state, EventModel m) {
  EventWorkload w = event_workload(m, static_cast<std::int32_t>(state.range(0)));
  FrmSimulator sim(w.model, std::move(w.start), 8);
  for (auto _ : state) sim.mc_step();
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.counters().executed));
}
BENCHMARK_CAPTURE(BM_FrmEvent, zgb, EventModel::kZgb)->Arg(80)->Arg(1000);
BENCHMARK_CAPTURE(BM_FrmEvent, pt100, EventModel::kPt100)->Arg(80)->Arg(1000);

void BM_EnabledCheck(benchmark::State& state) {
  const Configuration cfg = initial();
  const ReactionType& rt = zgb().model.reaction(3);  // 2-site CO+O pattern
  SiteIndex s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.enabled(cfg, s));
    s = (s + 1) % cfg.size();
  }
}
BENCHMARK(BM_EnabledCheck);

/// The 500x500 ZGB partition the draw benchmarks sweep.
const Partition& zgb500_partition() {
  static const Partition p = make_partition(Lattice(500, 500), zgb().model);
  return p;
}

/// ns per trial, for a benchmark that ran `trials` trials.
void report_ns_per_trial(benchmark::State& state, std::uint64_t trials) {
  state.counters["ns_per_trial"] = benchmark::Counter(
      static_cast<double>(trials) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The span trial kernel of the PNDCA sweep (enabled_trials) over every
// chunk of a mid-run 500x500 ZGB state (t = 2.5, half the ledger's
// zgb-500 horizon), with each chunk's reaction types drawn beforehand.
// Reports ns per trial; BM_EnabledCheck above is one scalar
// ReactionType::enabled call.
void BM_SpanKernel(benchmark::State& state) {
  struct Fixture {
    Partition partition;
    Configuration config;
    std::vector<std::vector<ReactionIndex>> types;  // per chunk
  };
  static const Fixture f = [] {
    const Lattice lat(500, 500);
    Partition p = make_partition(lat, zgb().model);
    PndcaSimulator sim(zgb().model, Configuration(lat, 3, zgb().vacant), {p}, 3);
    sim.advance_to(2.5);
    std::vector<std::vector<ReactionIndex>> types;
    for (ChunkId c = 0; c < p.num_chunks(); ++c) {
      const std::vector<SiteIndex>& sites = p.chunk(c);
      std::vector<ReactionIndex>& t = types.emplace_back(sites.size());
      sample_types(1, CounterRng::seed_hash(3), sites.data(), sites.size(),
                   zgb().model.alias_table(), t.data());
    }
    return Fixture{std::move(p), sim.configuration(), std::move(types)};
  }();
  const ProbePlans probes(zgb().model, 500, 500);
  std::vector<std::uint32_t> hits(f.partition.max_chunk_size());
  std::uint64_t trials = 0;
  for (auto _ : state) {
    for (ChunkId c = 0; c < f.partition.num_chunks(); ++c) {
      const std::vector<SiteIndex>& sites = f.partition.chunk(c);
      benchmark::DoNotOptimize(enabled_trials(probes, f.config, sites.data(),
                                              f.types[c].data(), sites.size(),
                                              hits.data()));
      trials += sites.size();
    }
  }
  report_ns_per_trial(state, trials);
}
BENCHMARK(BM_SpanKernel)->Unit(benchmark::kMicrosecond);

constexpr std::size_t kDrawSpan = 256;  // the span length of PNDCA's sweep

// PNDCA's draw (sample_types) over every chunk of the 500x500 ZGB
// partition in 256-trial spans, one sweep per chunk. The draw reads no
// lattice state, so the partition is the whole fixture.
void BM_SampleTypes(benchmark::State& state) {
  const Partition& p = zgb500_partition();
  const std::uint64_t seed_hash = CounterRng::seed_hash(3);
  ReactionIndex types[kDrawSpan];
  std::uint64_t sweep = 0;
  std::uint64_t trials = 0;
  for (auto _ : state) {
    for (ChunkId c = 0; c < p.num_chunks(); ++c) {
      const std::vector<SiteIndex>& sites = p.chunk(c);
      ++sweep;
      for (std::size_t i0 = 0; i0 < sites.size(); i0 += kDrawSpan) {
        const std::size_t m = std::min(kDrawSpan, sites.size() - i0);
        sample_types(sweep, seed_hash, sites.data() + i0, m, zgb().model.alias_table(),
                     types);
        benchmark::DoNotOptimize(types);
        benchmark::ClobberMemory();
      }
      trials += sites.size();
    }
  }
  report_ns_per_trial(state, trials);
}
BENCHMARK(BM_SampleTypes)->Unit(benchmark::kMicrosecond);

// L-PNDCA's draw (sample_trials): one MC step's trials of the same lattice,
// chunk by chunk in 256-trial spans of trial indices.
void BM_SampleTrials(benchmark::State& state) {
  const Partition& p = zgb500_partition();
  const std::uint64_t seed_hash = CounterRng::seed_hash(3);
  ReactionIndex types[kDrawSpan];
  std::uint64_t draws[kDrawSpan];
  std::uint64_t step = 0;
  std::uint64_t trials = 0;
  for (auto _ : state) {
    std::uint64_t first = 0;
    for (ChunkId c = 0; c < p.num_chunks(); ++c) {
      const std::size_t size = p.chunk(c).size();
      for (std::size_t i0 = 0; i0 < size; i0 += kDrawSpan) {
        const std::size_t m = std::min(kDrawSpan, size - i0);
        sample_trials(step, seed_hash, first, m, zgb().model.alias_table(), types, draws);
        benchmark::DoNotOptimize(types);
        benchmark::DoNotOptimize(draws);
        benchmark::ClobberMemory();
        first += m;
      }
    }
    trials += first;
    ++step;
  }
  report_ns_per_trial(state, trials);
}
BENCHMARK(BM_SampleTrials)->Unit(benchmark::kMicrosecond);

void BM_AliasTypeSample(benchmark::State& state) {
  Xoshiro256 rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zgb().model.sample_type(rng));
  }
}
BENCHMARK(BM_AliasTypeSample);

void BM_MakePartition(benchmark::State& state) {
  const Lattice lat(static_cast<std::int32_t>(state.range(0)),
                    static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_partition(lat, zgb().model));
  }
}
// Sides 500 (the ledger's lattice, where the five-chunk form meets the
// clique bound and the greedy search is skipped) and 512 (where no form
// below m = 8 fits the seam, so greedy still runs and is compared).
BENCHMARK(BM_MakePartition)
    ->Arg(50)
    ->Arg(100)
    ->Arg(500)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// The set-up of a launch: make_simulator on the hex-vacant 500x500 Pt(100)
// start casurf_run builds, for VSSM (0: enabled sets), FRM (1: pair index
// and event queue) and PNDCA (2: make_partition, probe plans and the
// block-rule verdict).
void BM_SimulatorBuild(benchmark::State& state) {
  static const models::Pt100Model pt = models::make_pt100();
  constexpr Algorithm kAlgorithms[] = {Algorithm::kVssm, Algorithm::kFrm,
                                       Algorithm::kPndca};
  SimulationOptions options;
  options.algorithm = kAlgorithms[state.range(0)];
  options.seed = 3;
  const Configuration start(Lattice(500, 500), pt.model.species().size(), pt.hex_vac);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_simulator(pt.model, start, options));
  }
  state.SetLabel(algorithm_name(options.algorithm));
}
BENCHMARK(BM_SimulatorBuild)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// One run of `sim` for `steps` MC steps, dumped as bench_out/BENCH_<name>.json
// so casurf_report (and CI) always have a fresh machine-readable artifact,
// whatever --benchmark_filter selected. `instrument` attaches a metrics
// registry for the run.
void emit_report(const char* name, const char* model, Simulator& sim,
                 std::uint64_t seed, int steps, unsigned threads, bool instrument) {
  obs::MetricsRegistry registry;
  if (instrument) sim.attach({&registry});
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) sim.mc_step();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0).count();

  obs::RunInfo info;
  info.algorithm = sim.name();
  info.model = model;
  info.width = sim.configuration().lattice().width();
  info.height = sim.configuration().lattice().height();
  info.seed = seed;
  info.t_end = sim.time();
  info.threads = threads;
  info.wall_seconds = wall;
  bench::write_bench_report(name, info, sim, registry);
  sim.attach({});
}

void emit_reports() {
  // The headline workload: rate-weighted PNDCA on equilibrated Pt(100) at
  // 256x256 (shrunk under the CI smoke's fast mode), run uninstrumented and
  // in deterministic time, which draws no clock at all, so the artifact
  // times the bare trial loop.
  static const models::Pt100Model& pt = models::make_pt100();
  const std::int32_t side = bench::fast_mode() ? 64 : 256;
  const int steps = bench::fast_mode() ? 3 : 10;
  const Lattice lat(side, side);
  const Partition p = Partition::linear_form(lat, 1, 3, 16);
  const Configuration start =
      equilibrated(pt.model, Configuration(lat, 5, pt.hex_vac), p, 10);
  PndcaSimulator pndca(pt.model, start, {p}, 10, ChunkPolicy::kRateWeighted,
                       TimeMode::kDeterministic);
  emit_report("micro_throughput", "pt100", pndca, 10, steps, 1, false);

  const std::int32_t zside = bench::fast_mode() ? 40 : kSide;
  const Lattice zlat(zside, zside);
  PndcaSimulator engine(zgb().model, Configuration(zlat, 3, zgb().vacant),
                        {Partition::linear_form(zlat, 1, 3, 5)}, 21,
                        ChunkPolicy::kRandomOrder, TimeMode::kStochastic, 2);
  emit_report("micro_parallel2", "zgb", engine, 21, steps, 2, true);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Always emitted, even under a narrow --benchmark_filter: the CI smoke
  // and casurf_report's A/B mode depend on these files existing.
  emit_reports();
  return 0;
}
