#pragma once

#include <vector>

#include "core/observer.hpp"
#include "core/simulator.hpp"
#include "stats/timeseries.hpp"

namespace casurf {

/// The most rows a sampling grid may have: a run from 0 to t_end sampled
/// every dt records t_end / dt + 1 rows, and at 2^24 rows the recorder of a
/// four-species model already holds 1 GiB. casurf_run and the serve JobSpec
/// refuse longer grids.
inline constexpr double kMaxSampleRows = 16777216.0;  // 2^24

/// Whether the grid of t_end / dt + 1 rows fits kMaxSampleRows.
[[nodiscard]] inline bool sample_grid_fits(double t_end, double dt) {
  return t_end / dt + 1 <= kMaxSampleRows;
}

/// Observer that records the coverage of selected species (or of all
/// species) on the sampling grid — the paper's primary observable
/// ("coverage with CO and O particles", Figs 8-10).
class CoverageRecorder final : public Observer {
 public:
  /// Record every species of the model.
  CoverageRecorder() = default;

  /// Record only the listed species.
  explicit CoverageRecorder(std::vector<Species> tracked) : tracked_(std::move(tracked)) {}

  void sample(const Simulator& sim) override;

  /// Series for species `s` (must have been tracked).
  [[nodiscard]] const TimeSeries& series(Species s) const;

  /// Series of the SUM of coverages of several species (e.g. CO on both
  /// phases of the Pt(100) model). Built on demand from recorded data.
  [[nodiscard]] TimeSeries combined(const std::vector<Species>& group) const;

  [[nodiscard]] const std::vector<Species>& tracked() const { return tracked_; }

  /// Checkpointing: tracked species + every recorded (t, v) pair, bit-exact,
  /// so a resumed run's CSV equals the uninterrupted run's byte for byte.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);

 private:
  std::vector<Species> tracked_;           // empty = all (filled on first sample)
  std::vector<TimeSeries> per_species_;    // parallel to tracked_
};

}  // namespace casurf
