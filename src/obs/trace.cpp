#include "obs/trace.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"

namespace casurf::obs {

std::vector<TraceEvent> TraceRing::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  // Once wrapped, next_ is the oldest slot; before that, slot 0 is.
  const std::size_t n = buf_.size();
  const std::size_t first = (n == capacity_) ? next_ : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(buf_[(first + i) % n]);
  return out;
}

// std::map keeps ring addresses stable across inserts (simulators cache the
// ring pointers) and iterates in tid order (deterministic export).
struct Tracer::Impl {
  mutable std::mutex mutex;
  std::map<unsigned, std::unique_ptr<TraceRing>> rings;
  std::map<unsigned, std::string> names;
  std::string trace_id;
};

Tracer::Tracer(std::size_t ring_capacity)
    : impl_(new Impl),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      t0_ns_(now_ns()) {}

Tracer::~Tracer() { delete impl_; }

TraceRing& Tracer::ring(unsigned tid) {
  std::lock_guard lock(impl_->mutex);
  auto& slot = impl_->rings[tid];
  if (!slot) slot = std::make_unique<TraceRing>(tid, ring_capacity_);
  return *slot;
}

void Tracer::set_thread_name(unsigned tid, std::string name) {
  std::lock_guard lock(impl_->mutex);
  impl_->names[tid] = std::move(name);
}

void Tracer::set_trace_id(std::string id) {
  std::lock_guard lock(impl_->mutex);
  impl_->trace_id = std::move(id);
}

std::string Tracer::trace_id() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->trace_id;
}

std::uint64_t Tracer::total_recorded() const {
  std::lock_guard lock(impl_->mutex);
  std::uint64_t total = 0;
  for (const auto& [tid, ring] : impl_->rings) total += ring->recorded();
  return total;
}

std::uint64_t Tracer::total_dropped() const {
  std::lock_guard lock(impl_->mutex);
  std::uint64_t total = 0;
  for (const auto& [tid, ring] : impl_->rings) total += ring->dropped();
  return total;
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard lock(impl_->mutex);
  json::Writer j;
  j.begin_object();
  j.key("traceEvents");
  j.begin_array();
  for (const auto& [tid, name] : impl_->names) {
    j.begin_object();
    j.key("name");
    j.string("thread_name");
    j.key("ph");
    j.string("M");
    j.key("pid");
    j.u64(1);
    j.key("tid");
    j.u64(tid);
    j.key("args");
    j.begin_object();
    j.key("name");
    j.string(name);
    j.end_object();
    j.end_object();
  }
  for (const auto& [tid, ring] : impl_->rings) {
    for (const TraceEvent& e : ring->events()) {
      j.begin_object();
      j.key("name");
      j.string(e.name != nullptr ? e.name : "?");
      j.key("cat");
      j.string("casurf");
      j.key("ph");
      j.string(e.kind == TraceEvent::Kind::kSpan ? "X" : "i");
      if (e.kind == TraceEvent::Kind::kInstant) {
        j.key("s");
        j.string("t");  // instant scope: thread
      }
      j.key("pid");
      j.u64(1);
      j.key("tid");
      j.u64(tid);
      // Chrome trace timestamps are microseconds; keep sub-µs precision
      // as a fraction, relative to tracer construction.
      j.key("ts");
      j.number(static_cast<double>(e.start_ns - t0_ns_) / 1000.0);
      if (e.kind == TraceEvent::Kind::kSpan) {
        j.key("dur");
        j.number(static_cast<double>(e.dur_ns) / 1000.0);
      }
      j.key("args");
      j.begin_object();
      j.key("sim_time");
      j.number(e.sim_time);
      j.key("step");
      j.u64(e.step);
      j.end_object();
      j.end_object();
    }
  }
  j.end_array();
  // Footer: wrap-around loss is reported, never silent.
  j.key("otherData");
  j.begin_object();
  j.key("schema");
  j.string("casurf-trace/1");
  // Steady-clock origin + correlation id: what --merge-traces needs to
  // stitch this file into a multi-process timeline.
  j.key("t0_ns");
  j.u64(t0_ns_);
  j.key("trace_id");
  j.string(impl_->trace_id);
  std::uint64_t recorded = 0, dropped = 0;
  for (const auto& [tid, ring] : impl_->rings) {
    recorded += ring->recorded();
    dropped += ring->dropped();
  }
  j.key("recorded_events");
  j.u64(recorded);
  j.key("dropped_events");
  j.u64(dropped);
  j.key("ring_capacity");
  j.u64(ring_capacity_);
  j.key("rings");
  j.begin_array();
  for (const auto& [tid, ring] : impl_->rings) {
    j.begin_object();
    j.key("tid");
    j.u64(tid);
    const auto it = impl_->names.find(tid);
    j.key("name");
    j.string(it != impl_->names.end() ? it->second : std::string());
    j.key("recorded");
    j.u64(ring->recorded());
    j.key("retained");
    j.u64(ring->size());
    j.key("dropped");
    j.u64(ring->dropped());
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.end_object();
  std::string out = std::move(j).str();
  out += '\n';
  return out;
}

void Tracer::write(const std::string& path) const {
  io::atomic_write_file(path, chrome_trace_json());
}

}  // namespace casurf::obs
