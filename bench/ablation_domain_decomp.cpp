// Ablation for the Segers-style parallel DMC baseline the paper discusses
// in section 3: strip-decomposed RSM with halo exchange. Measures the
// work/communication (volume/boundary) trade-off as the rank count grows,
// and contrasts it with PNDCA, which needs no state exchange at all —
// the motivation for the partitioned CA approach.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "models/zgb.hpp"
#include "obs/trace.hpp"
#include "parallel/domain_decomp.hpp"

using namespace casurf;

int main() {
  bench::header("Ablation — Segers chunked parallel DMC: work vs communication");

  const bool fast = bench::fast_mode();
  const std::int32_t side = fast ? 40 : 80;
  const double t_end = fast ? 2.0 : 6.0;
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Configuration initial(Lattice(side, side), 3, zgb.vacant);

  std::printf("ZGB on %d x %d, t_end = %.0f; vertical strips, halo exchange per round\n\n",
              side, side, t_end);
  std::printf("%-6s %-10s %-12s %-12s %-14s %s\n", "ranks", "strip", "messages",
              "bytes", "bytes/trial", "final O cov");

  // The widest row (8 ranks) runs comm-instrumented: per-edge counters and
  // per-rank trace lanes feed BENCH_domain_decomp.json and the Chrome
  // trace, with the cost-model prediction alongside for casurf_report
  // --comm. Probes never touch RNG state, so the row's trajectory matches
  // an uninstrumented run bit for bit.
  obs::MetricsRegistry registry8;
  obs::Tracer tracer8;
  tracer8.set_trace_id("bench-domain-decomp");
  DomainDecompResult res8;
  double wall8 = 0;
  bool have8 = false;

  std::vector<double> ranks_col, msg_col, bytes_col, ratio_col;
  for (const int ranks : {1, 2, 4, 8}) {
    if (side % ranks != 0) continue;
    DomainDecompParams params;
    params.ranks = ranks;
    params.seed = 7;
    params.t_end = t_end;
    params.sample_dt = 1.0;
    if (ranks == 8) params.sinks = {&registry8, &tracer8};
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = run_domain_decomp(zgb.model, initial, params);
    if (ranks == 8) {
      wall8 = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
      res8 = res;
      have8 = true;
    }
    const double ratio = res.total_trials
                             ? static_cast<double>(res.comm.bytes) /
                                   static_cast<double>(res.total_trials)
                             : 0.0;
    std::printf("%-6d %-10d %-12llu %-12llu %-14.4f %.3f\n", ranks, side / ranks,
                static_cast<unsigned long long>(res.comm.messages),
                static_cast<unsigned long long>(res.comm.bytes), ratio,
                res.coverage[zgb.o].back());
    ranks_col.push_back(ranks);
    msg_col.push_back(static_cast<double>(res.comm.messages));
    bytes_col.push_back(static_cast<double>(res.comm.bytes));
    ratio_col.push_back(ratio);
  }

  stats::write_csv(bench::out_dir() + "/ablation_domain_decomp.csv",
                   {"ranks", "messages", "bytes", "bytes_per_trial"},
                   {ranks_col, msg_col, bytes_col, ratio_col});
  std::printf("  [csv] %s/ablation_domain_decomp.csv\n", bench::out_dir().c_str());

  if (have8) {
    const std::int32_t r = zgb.model.max_radius_l1();
    obs::CommModel model;
    model.messages = 2.0 * 8 * static_cast<double>(res8.rounds);
    model.bytes =
        model.messages * (2.0 * r * side * static_cast<double>(sizeof(Species)));
    obs::RunInfo info;
    info.algorithm = "domain-decomp-rsm";
    info.model = "zgb";
    info.width = side;
    info.height = side;
    info.seed = 7;
    info.t_end = t_end;
    info.threads = 8;
    info.wall_seconds = wall8;
    info.trace_id = tracer8.trace_id();
    info.trace_drops = tracer8.total_dropped();
    bench::write_bench_report("domain_decomp", info, nullptr, registry8, nullptr,
                              &res8.comm, &model);
    const std::string trace_path = bench::out_dir() + "/domain_decomp_trace.json";
    tracer8.write(trace_path);
    std::printf("  [trace] %s\n", trace_path.c_str());
  }

  std::printf("\nShape check: communication grows linearly with the rank count while\n");
  std::printf("work per rank shrinks — the volume/boundary trade-off that made\n");
  std::printf("Segers' chunked DMC pay a considerable parallel overhead (paper\n");
  std::printf("sec. 3). PNDCA's conflict-free chunks exchange zero state instead.\n");
  return 0;
}
