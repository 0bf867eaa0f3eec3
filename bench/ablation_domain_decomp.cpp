// Ablation for the Segers-style parallel DMC baseline the paper discusses
// in section 3: strip-decomposed RSM with halo exchange. Measures the
// work/communication (volume/boundary) trade-off as the rank count grows,
// counting the halo traffic a distributed run would send, and contrasts it
// with PNDCA, which needs no state exchange at all — the motivation for
// the partitioned CA approach.

#include <cstdio>

#include "bench_util.hpp"
#include "models/zgb.hpp"
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

  std::vector<double> ranks_col, msg_col, bytes_col, ratio_col;
  for (const int ranks : {1, 2, 4, 8}) {
    if (side % ranks != 0) continue;
    DomainDecompParams params;
    params.ranks = ranks;
    params.seed = 7;
    params.t_end = t_end;
    params.sample_dt = 1.0;
    const auto res = run_domain_decomp(zgb.model, initial, params);
    const double ratio = res.total_trials
                             ? static_cast<double>(res.halo_bytes) /
                                   static_cast<double>(res.total_trials)
                             : 0.0;
    std::printf("%-6d %-10d %-12llu %-12llu %-14.4f %.3f\n", ranks, side / ranks,
                static_cast<unsigned long long>(res.halo_messages),
                static_cast<unsigned long long>(res.halo_bytes), ratio,
                res.coverage[zgb.o].back());
    ranks_col.push_back(ranks);
    msg_col.push_back(static_cast<double>(res.halo_messages));
    bytes_col.push_back(static_cast<double>(res.halo_bytes));
    ratio_col.push_back(ratio);
  }

  stats::write_csv(bench::out_dir() + "/ablation_domain_decomp.csv",
                   {"ranks", "messages", "bytes", "bytes_per_trial"},
                   {ranks_col, msg_col, bytes_col, ratio_col});
  std::printf("  [csv] %s/ablation_domain_decomp.csv\n", bench::out_dir().c_str());

  std::printf("\nShape check: communication grows linearly with the rank count while\n");
  std::printf("work per rank shrinks — the volume/boundary trade-off that made\n");
  std::printf("Segers' chunked DMC pay a considerable parallel overhead (paper\n");
  std::printf("sec. 3). PNDCA's conflict-free chunks exchange zero state instead.\n");
  return 0;
}
