#pragma once

// The bookkeeping check shared by the VSSM and FRM suites, the mask-shape
// rows both run it on, and the resident-memory probe of their memory tests.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/simulator.hpp"
#include "dmc/frm.hpp"
#include "model/parser.hpp"
#include "models/diffusion.hpp"
#include "models/ising.hpp"
#include "models/pt100.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {

/// The (type, site) pairs enabled in `sim`'s configuration, counted one by
/// one.
inline std::uint64_t brute_force_enabled_pairs(const Simulator& sim) {
  std::uint64_t n = 0;
  for (const ReactionType& rt : sim.model().reactions()) {
    for (SiteIndex s = 0; s < sim.configuration().size(); ++s) {
      if (rt.enabled(sim.configuration(), s)) ++n;
    }
  }
  return n;
}

/// Steps `sim` `events` times. After every event the simulator's own audit
/// — its enabled sets, or its pair index and queue, against the
/// configuration — must report nothing, and FRM's queue must hold exactly
/// one event per enabled pair.
template <class Sim>
void expect_audit_clean_after_every_event(Sim& sim, int events) {
  for (int i = 0; i < events; ++i) {
    sim.mc_step();
    AuditReport report;
    sim.audit_derived_state(report, false);
    ASSERT_TRUE(report.clean()) << "after event " << i + 1 << ":\n" << report.to_string();
    if constexpr (std::is_same_v<Sim, FrmSimulator>) {
      ASSERT_EQ(sim.queue().size(), sim.enabled_pairs()) << "after event " << i + 1;
      ASSERT_EQ(sim.enabled_pairs(), brute_force_enabled_pairs(sim))
          << "after event " << i + 1;
    }
  }
}

/// `watch` reads its two flanking sites through overlapping multi-species
/// masks. Where the flanks alias (width 2), the merged recheck entry covers
/// A|B|C, yet a write A -> B still flips the type: the case the recheck
/// table's `multi` flag exists for.
inline constexpr const char* kAliasedOverlapModel = R"(species * A B C
reaction fill rate=1
  (0,0) * -> A
end
reaction ab rate=1
  (0,0) A -> B
end
reaction bc rate=1
  (0,0) B -> C
end
reaction empty rate=1
  (0,0) C -> *
end
reaction watch rate=2 orientations=xy
  (0,0) * -> A
  (1,0) A|B -> keep
  (-1,0) B|C -> keep
end
)";

/// One bookkeeping row: a model whose source masks take a given shape —
/// Pt(100)'s multi-species `require` masks, the hop pairs of diffusion and
/// single-file, Ising's 32 neighbour patterns, the parsed A + B model, the
/// overlapping flank masks above — on a lattice where, at 2x2 and 3x1,
/// distinct offsets alias after wrapping.
struct MaskRow {
  std::string name;
  ReactionModel (*make_model)();
  std::int32_t width;
  std::int32_t height;
};

inline void PrintTo(const MaskRow& row, std::ostream* os) { *os << row.name; }

inline std::vector<MaskRow> mask_rows() {
  const struct {
    const char* name;
    ReactionModel (*make)();
  } models[] = {
      {"pt100", [] { return models::make_pt100().model; }},
      {"diffusion", [] { return models::make_diffusion().model; }},
      {"ising", [] { return models::make_ising(0.5).model; }},
      {"single_file", [] { return models::make_single_file().model; }},
      {"ab_annihilation",
       [] { return parse_model_file(CASURF_DATA_DIR "/ab_annihilation.model"); }},
      {"aliased_overlap", [] { return parse_model(kAliasedOverlapModel); }}};
  const struct {
    const char* name;
    std::int32_t w, h;
  } lattices[] = {{"10x10", 10, 10}, {"2x2", 2, 2}, {"3x1", 3, 1}};
  std::vector<MaskRow> rows;
  for (const auto& m : models) {
    for (const auto& l : lattices) {
      rows.push_back({std::string(m.name) + "_" + l.name, m.make, l.w, l.h});
    }
  }
  return rows;
}

/// A uniformly random species at every site, so every mask shape is in play
/// from the first event.
inline Configuration random_configuration(const ReactionModel& model, std::int32_t width,
                                          std::int32_t height, std::uint64_t seed) {
  Configuration cfg(Lattice(width, height), model.species().size(), 0);
  Xoshiro256 rng(seed);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    cfg.set(s, static_cast<Species>(uniform_below(rng, model.species().size())));
  }
  return cfg;
}

/// The process's resident set in bytes, read from /proc/self/statm;
/// nullopt where that file cannot be read.
inline std::optional<std::int64_t> resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return std::nullopt;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

/// Why a resident-set measurement means nothing in this build or on this
/// host, or "" if it can be taken: under ASan and TSan the resident set
/// also holds shadow memory, which a test cannot tell from its own.
inline std::string resident_memory_unmeasurable() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "ASan and TSan shadow memory swamps the resident set";
#else
  return resident_bytes() ? "" : "/proc/self/statm cannot be read";
#endif
}

/// Growth of the resident set, in MB, from before `build` runs until its
/// result (kept alive meanwhile) exists. Call only when
/// resident_memory_unmeasurable() is "".
template <class Build>
double resident_growth_mb(Build build) {
  const std::int64_t before = *resident_bytes();
  const auto built = build();
  const std::int64_t after = *resident_bytes();
  return static_cast<double>(after - before) / (1024.0 * 1024.0);
}

}  // namespace casurf
