#pragma once

namespace casurf::obs {

class MetricsRegistry;
class Tracer;
class SpatialMap;

/// Where a simulator records its observations. A null member turns that
/// sink off; a default-constructed value attaches nothing. Every sink is
/// borrowed and must outlive whatever it is attached to (or be detached
/// first).
struct Sinks {
  MetricsRegistry* metrics = nullptr;  ///< phase timers, counters, histograms
  Tracer* tracer = nullptr;            ///< per-thread span rings
  SpatialMap* spatial = nullptr;       ///< per-site attempt/fire tallies
};

}  // namespace casurf::obs
