#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace casurf {

/// Thrown out of a blocking Communicator call (recv, barrier, allreduce)
/// when a peer rank has failed: the world is aborting, so the message or
/// collective this rank is waiting for can never complete. Surviving ranks
/// should let it propagate; Communicator::run treats it as a secondary
/// casualty and rethrows the peer's original exception instead.
class CommAborted : public std::runtime_error {
 public:
  CommAborted()
      : std::runtime_error(
            "communicator: world aborted (a peer rank failed before "
            "completing this exchange)") {}
};

/// Pre-resolved comm probes for one Communicator world. arm() resolves
/// every registry probe and trace lane ONCE, before the rank threads
/// start; record sites then cost one branch when disarmed and touch only
/// atomics (or the caller rank's own single-writer lane) when armed.
///
/// Metric names (see docs/OBSERVABILITY.md):
///   comm/edge/<src>-><dst>/messages   counter, per directed edge
///   comm/edge/<src>-><dst>/bytes      counter, per directed edge
///   comm/wait/recv/rank<k>            timer, blocked in recv()
///   comm/wait/barrier/rank<k>         timer, blocked in barrier()
///   comm/wait/allreduce/rank<k>       timer, blocked in allreduce_sum()
///   comm/queue_high_water/rank<k>     gauge, mailbox depth high-water
///   comm/barrier_skew_ns              histogram, first→last arrival/epoch
class CommProbes {
 public:
  /// Resolve every probe once. Safe with no sinks attached: the probes
  /// stay disarmed and every record site below is a single branch.
  void arm(int world_size, const obs::Sinks& sinks);

  /// Rank k's trace lane (tid obs::kRankLaneBase + k); null when no tracer
  /// is attached.
  [[nodiscard]] obs::TraceRing* ring(int rank) const {
    return armed_ ? lanes_[static_cast<std::size_t>(rank)] : nullptr;
  }
  /// Timestamp for a blocking call's wait timer (0 when disarmed).
  [[nodiscard]] std::uint64_t begin_wait() const {
    return armed_ ? obs::now_ns() : 0;
  }

  /// Point-to-point probes. note_queue_depth runs under the destination
  /// mailbox's mutex (the high-water bookkeeping shares that lock); the
  /// others touch only atomics and the calling rank's own lane.
  void on_send(int src, int dst, int tag, std::size_t bytes);
  void note_queue_depth(int dst, std::size_t depth);
  void on_recv(int rank, int src, int tag, std::size_t bytes, std::uint64_t t0);

  /// Collective probes. on_coll_arrival/on_coll_release run under the
  /// communicator's collective mutex, which guards the first-arrival
  /// timestamp; finish_coll runs after release on the caller's own lane.
  void on_coll_arrival(int arrived_before);
  void on_coll_release();
  void finish_coll(int rank, std::uint64_t t0, std::uint64_t generation,
                   bool allreduce);

 private:
  bool armed_ = false;
  int world_ = 0;
  std::vector<obs::TraceRing*> lanes_;        ///< per rank; null = no tracer
  std::vector<obs::Counter*> edge_messages_;  ///< [src*world_+dst]; empty = no registry
  std::vector<obs::Counter*> edge_bytes_;
  std::vector<obs::Timer*> wait_recv_;
  std::vector<obs::Timer*> wait_barrier_;
  std::vector<obs::Timer*> wait_allreduce_;
  std::vector<obs::Gauge*> queue_high_water_;
  std::vector<std::size_t> high_water_;  ///< guarded by each mailbox's mutex
  obs::Histogram* barrier_skew_ = nullptr;
  std::uint64_t epoch_first_ns_ = 0;  ///< guarded by the collective mutex
};

/// In-process message-passing substrate, MPI-flavored: a fixed world of
/// ranks (one thread each) exchanging tagged point-to-point messages plus
/// barrier and allreduce collectives. Stands in for the MPI layer of
/// Segers' chunked parallel DMC (paper section 3) on machines without an
/// MPI installation; the communication *pattern* — and the per-message /
/// per-byte counts the cost model consumes — is the same.
class Communicator {
 public:
  class Rank;

  /// Totals of one run(): point-to-point messages, payload bytes, and
  /// collective epochs (barriers + allreduces).
  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t barriers = 0;
  };

  /// Spawn `world_size` ranks, run `rank_main` on each (rank 0 included),
  /// join, and return this run's communication totals. Stats are
  /// per-instance — concurrent run() calls (e.g. two simulations on
  /// different threads) never see each other's counts.
  ///
  /// Failure semantics: a rank that throws aborts the whole world. Every
  /// peer blocked in (or later entering) recv/barrier/allreduce wakes and
  /// throws CommAborted instead of waiting for a message or a collective
  /// that can never complete, so run() always returns: it joins every
  /// rank and rethrows the first *original* exception — the CommAborted
  /// cascade it triggered in the survivors is not reported.
  ///
  /// Observability: per-edge message/byte counters, blocked-wait timers,
  /// queue-depth high-water gauges, and a barrier-skew histogram go into
  /// `sinks.metrics`; per-rank trace lanes (tid obs::kRankLaneBase + rank)
  /// into `sinks.tracer` (`sinks.spatial` is unused). A null sink is off,
  /// same null-probe-off discipline as Simulator::attach, so an unobserved
  /// world pays one branch per record site and the trajectory is
  /// bit-identical either way. Probes are resolved once before the rank
  /// threads start and are per-instance — concurrent worlds with different
  /// sinks never cross-contaminate.
  static Stats run(int world_size, const std::function<void(Rank&)>& rank_main,
                   const obs::Sinks& sinks = {});

  /// A rank's endpoint: the handle `rank_main` receives.
  class Rank {
   public:
    [[nodiscard]] int rank() const { return rank_; }
    [[nodiscard]] int world_size() const { return static_cast<int>(comm_->boxes_.size()); }

    /// Asynchronous (buffered) send; never blocks.
    void send(int dest, int tag, std::vector<std::byte> payload);

    /// Blocking receive of the oldest pending message matching (src, tag).
    [[nodiscard]] std::vector<std::byte> recv(int src, int tag);

    /// Typed convenience wrappers for trivially-copyable payloads.
    template <class T>
    void send_value(int dest, int tag, const T& value) {
      static_assert(std::is_trivially_copyable_v<T>);
      std::vector<std::byte> buf(sizeof(T));
      std::memcpy(buf.data(), &value, sizeof(T));
      send(dest, tag, std::move(buf));
    }
    template <class T>
    [[nodiscard]] T recv_value(int src, int tag) {
      static_assert(std::is_trivially_copyable_v<T>);
      const std::vector<std::byte> buf = recv(src, tag);
      check_payload_size("recv_value", src, tag, buf.size(), 1, sizeof(T));
      T value{};
      std::memcpy(&value, buf.data(), sizeof(T));
      return value;
    }
    template <class T>
    void send_span(int dest, int tag, const T* data, std::size_t count) {
      static_assert(std::is_trivially_copyable_v<T>);
      std::vector<std::byte> buf(count * sizeof(T));
      std::memcpy(buf.data(), data, buf.size());
      send(dest, tag, std::move(buf));
    }
    template <class T>
    void recv_span(int src, int tag, T* data, std::size_t count) {
      static_assert(std::is_trivially_copyable_v<T>);
      const std::vector<std::byte> buf = recv(src, tag);
      // A size mismatch is a protocol bug (sender and receiver disagree on
      // the exchange) — fail loudly instead of silently truncating or
      // zero-padding the halo.
      check_payload_size("recv_span", src, tag, buf.size(), count, sizeof(T));
      std::memcpy(data, buf.data(), buf.size());
    }

    /// Synchronize all ranks (sense-reversing generation barrier).
    void barrier();

    /// Sum a value across all ranks; every rank receives the total.
    [[nodiscard]] double allreduce_sum(double value);
    [[nodiscard]] std::uint64_t allreduce_sum(std::uint64_t value);

    /// This rank's trace lane, for compute spans between exchanges
    /// (null when the world runs without a tracer). Single-writer: only
    /// this rank's thread may record into it.
    [[nodiscard]] obs::TraceRing* trace() const {
      return comm_->probes_.ring(rank_);
    }

   private:
    friend class Communicator;
    Rank(Communicator* comm, int rank) : comm_(comm), rank_(rank) {}

    /// Throws std::runtime_error when a typed receive's payload size does
    /// not match the expected element count.
    static void check_payload_size(const char* what, int src, int tag,
                                   std::size_t got, std::size_t count,
                                   std::size_t elem_size) {
      const std::size_t expected = count * elem_size;
      if (got == expected) return;
      throw std::runtime_error(
          std::string("Communicator::") + what +
          ": payload size mismatch from rank " + std::to_string(src) +
          " tag " + std::to_string(tag) + ": got " + std::to_string(got) +
          " bytes, expected " + std::to_string(expected) + " (" +
          std::to_string(count) + " x " + std::to_string(elem_size) +
          "-byte elements)");
    }

    Communicator* comm_;
    int rank_;
  };

 private:
  struct Message {
    int src;
    int tag;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Message> queue;
  };

  explicit Communicator(int world_size);

  template <class T>
  T allreduce_impl(int rank, T value);

  /// Poison every mailbox and the collective state: set the abort flag and
  /// wake all waiters, which then throw CommAborted. Called from run()'s
  /// catch path; safe to call from multiple failing ranks concurrently.
  void abort_world();

  std::vector<Mailbox> boxes_;
  std::atomic<bool> aborted_{false};
  // Barrier + reduction state.
  std::mutex coll_mutex_;
  std::condition_variable coll_cv_;
  int coll_arrived_ = 0;
  std::uint64_t coll_generation_ = 0;
  double reduce_double_ = 0;
  std::uint64_t reduce_u64_ = 0;
  double reduce_double_out_ = 0;
  std::uint64_t reduce_u64_out_ = 0;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> barriers_{0};
  CommProbes probes_;
};

}  // namespace casurf
