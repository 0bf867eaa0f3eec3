#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/configuration.hpp"

namespace casurf {
class Partition;
}

namespace casurf::obs {

namespace json {
class Writer;
}

/// Spatial observability: per-site event-activity accumulators and the
/// seam/chunk accounting derived from them. The paper's PNDCA accuracy
/// trade-off shows up first as *spatial* artifacts — reactions suppressed
/// across chunk boundaries, distorted adsorbate islands — long before the
/// scalar coverages move, so the scalar drift monitor alone can pass a run
/// whose lattice is visibly striped along partition seams.
///
/// Same discipline as the metrics/trace probes: simulators hold a
/// `SpatialProbe` resolved ONCE at `Simulator::attach`; a null map
/// means "off" — one branch per trial, never touching RNG or simulation
/// state, so the instrumented trajectory is bit-identical to the bare run.

/// Per-site attempt/fire tallies over a run. "Attempt" is one trial landing
/// on the site (or one DMC event selection); "fire" is an executed
/// reaction anchored there; rejects = attempts - fires.
///
/// Counters are plain (non-atomic) words: in threaded PNDCA's test phase
/// every worker records the sites of its own slice of the chunk, a
/// disjoint site set, and the thread-pool join orders successive phases,
/// so recording needs no synchronization.
class SpatialMap {
 public:
  explicit SpatialMap(SiteIndex num_sites)
      : attempts_(num_sites, 0), fires_(num_sites, 0) {}

  void record_attempt(SiteIndex s) { ++attempts_[s]; }
  void record_fire(SiteIndex s) { ++fires_[s]; }

  [[nodiscard]] SiteIndex size() const {
    return static_cast<SiteIndex>(attempts_.size());
  }
  [[nodiscard]] std::uint64_t attempts(SiteIndex s) const { return attempts_.at(s); }
  [[nodiscard]] std::uint64_t fires(SiteIndex s) const { return fires_.at(s); }
  [[nodiscard]] std::uint64_t rejects(SiteIndex s) const {
    return attempts_.at(s) - fires_.at(s);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& attempts() const { return attempts_; }
  [[nodiscard]] const std::vector<std::uint64_t>& fires() const { return fires_; }
  [[nodiscard]] std::uint64_t total_attempts() const;
  [[nodiscard]] std::uint64_t total_fires() const;

  void reset();

 private:
  std::vector<std::uint64_t> attempts_;
  std::vector<std::uint64_t> fires_;
};

/// The handle simulators hold: a nullable pointer whose null state is the
/// "off" fast path, mirroring the phase probes (phase.hpp).
class SpatialProbe {
 public:
  void attach(SpatialMap* map) { map_ = map; }
  void attempt(SiteIndex s) const {
    if (map_ != nullptr) map_->record_attempt(s);
  }
  void fire(SiteIndex s) const {
    if (map_ != nullptr) map_->record_fire(s);
  }
  [[nodiscard]] const SpatialMap* map() const { return map_; }

 private:
  SpatialMap* map_ = nullptr;
};

/// Per-site seam classification: mask[s] != 0 when some conflict offset d
/// takes s into a different chunk (periodic), i.e. reactions anchored at s
/// can couple across a partition boundary. With the paper's non-overlap
/// rule every in-chunk trial is seam-safe by construction; the seam sites
/// are exactly where the *scheduling* bias of coarse chunk updates can
/// suppress or delay reactions.
[[nodiscard]] std::vector<std::uint8_t> seam_mask(const Partition& part,
                                                  const std::vector<Vec2>& offsets);

struct ChunkActivity {
  std::uint64_t sites = 0;
  std::uint64_t attempts = 0;
  std::uint64_t fires = 0;
};

/// Partition-level aggregation of a SpatialMap, derived at export time so
/// the hot path stays a pair of increments.
struct SpatialSummary {
  std::vector<ChunkActivity> per_chunk;
  /// max over chunks of (fires / sites), divided by the mean over chunks;
  /// 1 = perfectly balanced. 1 when nothing fired anywhere.
  double chunk_fire_imbalance = 1.0;
  std::uint64_t seam_sites = 0, interior_sites = 0;
  std::uint64_t seam_attempts = 0, seam_fires = 0;
  std::uint64_t interior_attempts = 0, interior_fires = 0;
  /// (seam fires per seam site) / (interior fires per interior site);
  /// 1 = no seam bias, < 1 = reactions suppressed along partition
  /// boundaries. 0 when undefined (no interior sites, or a silent
  /// interior).
  double seam_interior_fire_ratio = 0.0;
};

/// Aggregate `map` over `part` with seam classification from the model's
/// conflict offsets. Throws std::invalid_argument when the map and the
/// partition disagree on the site count.
[[nodiscard]] SpatialSummary summarize(const SpatialMap& map, const Partition& part,
                                       const std::vector<Vec2>& offsets);

/// Emit the summary as a JSON object into an open writer (shared between
/// the heatmap document and the run report's "spatial" section).
void append_summary_json(json::Writer& j, const SpatialSummary& summary);

/// A complete spatial snapshot as JSON, schema "casurf-heatmap/1":
/// lattice dimensions, sim time, species names, the row-major occupancy
/// grid, per-site attempt/fire grids (null when `map` is null), and the
/// partition summary (null when `summary` is null).
[[nodiscard]] std::string heatmap_json(const Configuration& cfg,
                                       const std::vector<std::string>& species,
                                       double sim_time, const SpatialMap* map,
                                       const SpatialSummary* summary);

/// heatmap_json through the crash-safe atomic write path.
void write_heatmap_json(const std::string& path, const Configuration& cfg,
                        const std::vector<std::string>& species, double sim_time,
                        const SpatialMap* map, const SpatialSummary* summary);

enum class ActivityChannel { kAttempts, kFires, kRejects };

/// Render one activity channel as a binary PPM (P6) heat image, one pixel
/// per site, black -> red -> yellow -> white normalized to the channel's
/// maximum count (all-black when nothing was recorded). Atomic write, same
/// as io::write_ppm.
void write_activity_ppm(const std::string& path, const SpatialMap& map,
                        const Lattice& lat, ActivityChannel channel);

}  // namespace casurf::obs
