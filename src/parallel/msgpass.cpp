#include "parallel/msgpass.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

namespace casurf {

Communicator::Communicator(int world_size) : boxes_(world_size) {
  if (world_size < 1) {
    throw std::invalid_argument("Communicator: world size must be >= 1");
  }
}

namespace {

bool is_comm_aborted(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const CommAborted&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

void CommProbes::arm(int world_size, const obs::Sinks& sinks) {
  world_ = world_size;
  if (sinks.metrics == nullptr && sinks.tracer == nullptr) return;
  armed_ = true;
  lanes_.assign(world_size, nullptr);
  high_water_.assign(world_size, 0);
  if (sinks.tracer != nullptr) {
    for (int r = 0; r < world_size; ++r) {
      const unsigned tid = obs::kRankLaneBase + static_cast<unsigned>(r);
      sinks.tracer->set_thread_name(tid, "rank" + std::to_string(r));
      lanes_[r] = &sinks.tracer->ring(tid);
    }
  }
  if (sinks.metrics != nullptr) {
    obs::MetricsRegistry& reg = *sinks.metrics;
    edge_messages_.assign(static_cast<std::size_t>(world_size) * world_size,
                          nullptr);
    edge_bytes_.assign(edge_messages_.size(), nullptr);
    for (int s = 0; s < world_size; ++s) {
      for (int d = 0; d < world_size; ++d) {
        const std::string edge = "comm/edge/" + std::to_string(s) + "->" +
                                 std::to_string(d);
        edge_messages_[s * world_size + d] = &reg.counter(edge + "/messages");
        edge_bytes_[s * world_size + d] = &reg.counter(edge + "/bytes");
      }
    }
    wait_recv_.resize(world_size);
    wait_barrier_.resize(world_size);
    wait_allreduce_.resize(world_size);
    queue_high_water_.resize(world_size);
    for (int r = 0; r < world_size; ++r) {
      const std::string rank = "rank" + std::to_string(r);
      wait_recv_[r] = &reg.timer("comm/wait/recv/" + rank);
      wait_barrier_[r] = &reg.timer("comm/wait/barrier/" + rank);
      wait_allreduce_[r] = &reg.timer("comm/wait/allreduce/" + rank);
      queue_high_water_[r] = &reg.gauge("comm/queue_high_water/" + rank);
    }
    barrier_skew_ = &reg.histogram("comm/barrier_skew_ns");
  }
}

void CommProbes::on_send(int src, int dst, int tag, std::size_t bytes) {
  if (!armed_) return;
  if (!edge_messages_.empty()) {
    const std::size_t edge = static_cast<std::size_t>(src) * world_ + dst;
    edge_messages_[edge]->add();
    edge_bytes_[edge]->add(bytes);
  }
  if (lanes_[src] != nullptr) {
    lanes_[src]->comm_instant("comm/send", src, dst, tag, bytes);
  }
}

void CommProbes::note_queue_depth(int dst, std::size_t depth) {
  // Called under the dst mailbox's mutex, which also guards high_water_.
  if (queue_high_water_.empty() || depth <= high_water_[dst]) return;
  high_water_[dst] = depth;
  queue_high_water_[dst]->set(static_cast<double>(depth));
}

void CommProbes::on_recv(int rank, int src, int tag, std::size_t bytes,
                         std::uint64_t t0) {
  if (!armed_) return;
  const std::uint64_t end = obs::now_ns();
  if (!wait_recv_.empty()) wait_recv_[rank]->add_ns(end - t0);
  if (lanes_[rank] != nullptr) {
    lanes_[rank]->comm_span("comm/recv", t0, end - t0, src, rank, tag, bytes);
  }
}

void CommProbes::on_coll_arrival(int arrived_before) {
  // Under the collective mutex: the first arrival of an epoch stamps the
  // skew origin.
  if (barrier_skew_ != nullptr && arrived_before == 0) {
    epoch_first_ns_ = obs::now_ns();
  }
}

void CommProbes::on_coll_release() {
  // Under the collective mutex, in the releasing (last-arrival) rank.
  if (barrier_skew_ != nullptr) {
    barrier_skew_->record(obs::now_ns() - epoch_first_ns_);
  }
}

void CommProbes::finish_coll(int rank, std::uint64_t t0,
                             std::uint64_t generation, bool allreduce) {
  if (!armed_) return;
  const std::uint64_t end = obs::now_ns();
  if (!wait_barrier_.empty()) {
    (allreduce ? wait_allreduce_ : wait_barrier_)[rank]->add_ns(end - t0);
  }
  if (lanes_[rank] != nullptr) {
    lanes_[rank]->span(allreduce ? "comm/allreduce" : "comm/barrier", t0,
                       end - t0, 0.0, generation);
  }
}

Communicator::Stats Communicator::run(int world_size,
                                      const std::function<void(Rank&)>& rank_main,
                                      const obs::Sinks& sinks) {
  Communicator comm(world_size);
  comm.probes_.arm(world_size, sinks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(world_size);
  threads.reserve(world_size);
  for (int r = 0; r < world_size; ++r) {
    threads.emplace_back([&comm, &rank_main, &errors, r] {
      Rank handle(&comm, r);
      try {
        rank_main(handle);
      } catch (...) {
        errors[r] = std::current_exception();
        // Wake every peer blocked on a message or collective this rank
        // will never complete; they throw CommAborted and unwind, so the
        // join loop below always terminates.
        comm.abort_world();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Rethrow the root cause, not the CommAborted cascade it triggered.
  for (const std::exception_ptr& e : errors) {
    if (e && !is_comm_aborted(e)) std::rethrow_exception(e);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return Stats{comm.messages_.load(), comm.bytes_.load(), comm.barriers_.load()};
}

void Communicator::abort_world() {
  aborted_.store(true);
  // Lock-then-notify per cv: a waiter either checks the flag before
  // releasing its mutex (and sees the store), or is already parked when
  // this acquires the mutex — in which case the notify reaches it. Without
  // taking the lock, the store could land between a waiter's check and its
  // wait(), and the notify would be lost forever.
  for (Mailbox& box : boxes_) {
    { std::lock_guard lock(box.mutex); }
    box.arrived.notify_all();
  }
  { std::lock_guard lock(coll_mutex_); }
  coll_cv_.notify_all();
}

void Communicator::Rank::send(int dest, int tag, std::vector<std::byte> payload) {
  if (dest < 0 || dest >= world_size()) {
    throw std::out_of_range("Communicator::send: bad destination rank");
  }
  const std::size_t nbytes = payload.size();
  Mailbox& box = comm_->boxes_[dest];
  comm_->messages_.fetch_add(1, std::memory_order_relaxed);
  comm_->bytes_.fetch_add(nbytes, std::memory_order_relaxed);
  {
    std::lock_guard lock(box.mutex);
    box.queue.push_back(Message{rank_, tag, std::move(payload)});
    comm_->probes_.note_queue_depth(dest, box.queue.size());
  }
  box.arrived.notify_all();
  comm_->probes_.on_send(rank_, dest, tag, nbytes);
}

std::vector<std::byte> Communicator::Rank::recv(int src, int tag) {
  const std::uint64_t t0 = comm_->probes_.begin_wait();
  Mailbox& box = comm_->boxes_[rank_];
  std::unique_lock lock(box.mutex);
  for (;;) {
    // Checked on entry and after every wakeup: a pending message from a
    // now-dead world is no longer deliverable in any meaningful order.
    if (comm_->aborted_.load()) throw CommAborted();
    const auto it = std::ranges::find_if(box.queue, [&](const Message& m) {
      return m.src == src && m.tag == tag;
    });
    if (it != box.queue.end()) {
      std::vector<std::byte> payload = std::move(it->payload);
      box.queue.erase(it);
      lock.unlock();
      comm_->probes_.on_recv(rank_, src, tag, payload.size(), t0);
      return payload;
    }
    box.arrived.wait(lock);
  }
}

void Communicator::Rank::barrier() {
  const std::uint64_t t0 = comm_->probes_.begin_wait();
  std::uint64_t gen = 0;
  {
    std::unique_lock lock(comm_->coll_mutex_);
    if (comm_->aborted_.load()) throw CommAborted();
    gen = comm_->coll_generation_;
    comm_->probes_.on_coll_arrival(comm_->coll_arrived_);
    if (++comm_->coll_arrived_ == world_size()) {
      comm_->coll_arrived_ = 0;
      comm_->probes_.on_coll_release();
      ++comm_->coll_generation_;
      comm_->barriers_.fetch_add(1, std::memory_order_relaxed);
      comm_->coll_cv_.notify_all();
    } else {
      comm_->coll_cv_.wait(lock, [&] {
        return comm_->coll_generation_ != gen || comm_->aborted_.load();
      });
      // Epoch never released: woken by abort_world, not by the last arrival.
      if (comm_->coll_generation_ == gen) throw CommAborted();
    }
  }
  comm_->probes_.finish_coll(rank_, t0, gen, /*allreduce=*/false);
}

template <class T>
T Communicator::allreduce_impl(int rank, T value) {
  // Accumulate under the collective lock; last arrival publishes the total
  // and releases the epoch. Two barrier-like phases folded into one
  // generation step because the accumulator is reset by the releaser.
  T* slot;
  T* out;
  if constexpr (std::is_same_v<T, double>) {
    slot = &reduce_double_;
    out = &reduce_double_out_;
  } else {
    slot = &reduce_u64_;
    out = &reduce_u64_out_;
  }
  const std::uint64_t t0 = probes_.begin_wait();
  T result;
  std::uint64_t gen = 0;
  {
    std::unique_lock lock(coll_mutex_);
    if (aborted_.load()) throw CommAborted();
    gen = coll_generation_;
    probes_.on_coll_arrival(coll_arrived_);
    *slot += value;
    if (++coll_arrived_ == static_cast<int>(boxes_.size())) {
      coll_arrived_ = 0;
      probes_.on_coll_release();
      *out = *slot;
      *slot = T{};
      ++coll_generation_;
      barriers_.fetch_add(1, std::memory_order_relaxed);
      coll_cv_.notify_all();
    } else {
      coll_cv_.wait(lock,
                    [&] { return coll_generation_ != gen || aborted_.load(); });
      if (coll_generation_ == gen) throw CommAborted();
    }
    result = *out;
  }
  probes_.finish_coll(rank, t0, gen, /*allreduce=*/true);
  return result;
}

double Communicator::Rank::allreduce_sum(double value) {
  return comm_->allreduce_impl<double>(rank_, value);
}

std::uint64_t Communicator::Rank::allreduce_sum(std::uint64_t value) {
  return comm_->allreduce_impl<std::uint64_t>(rank_, value);
}

}  // namespace casurf
