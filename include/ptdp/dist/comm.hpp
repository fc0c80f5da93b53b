#pragma once

// Communicator: an MPI-style handle over a subset of world ranks, backed by
// the thread-world Mailbox. Point-to-point operations come in request-based
// nonblocking form (isend/irecv returning a Request with wait()/test(), the
// completion path being Mailbox try_take/take) and as blocking wrappers
// (send/recv) layered on top. Collectives are built from p2p using classic
// ring / dissemination algorithms, mirroring what NCCL does on real
// hardware so that communication *volume* accounting in the simulator
// matches the functional runtime's message pattern.
//
// Requests complete on the calling rank thread only — never on the intra-op
// helper pool — preserving the DESIGN.md §8 pool-separation invariant (see
// DESIGN.md §9 "Communication plane").

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "ptdp/dist/fault.hpp"
#include "ptdp/dist/mailbox.hpp"
#include "ptdp/dist/request.hpp"
#include "ptdp/dist/tags.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/runtime/check.hpp"
#include "ptdp/runtime/rng.hpp"

namespace ptdp::dist {

/// Reduction operators supported by the reduce-style collectives.
enum class ReduceOp { kSum, kMax, kMin };

/// A communicator over an ordered list of world ranks.
///
/// Copyable and cheap to pass by value: all heavyweight state lives in the
/// shared Mailbox. Every member of a communicator must call collectives in
/// the same order (standard MPI rule).
class Comm {
 public:
  /// Builds the world communicator for one rank. Normally constructed by
  /// World::run — user code receives a Comm rather than constructing one.
  Comm(std::shared_ptr<Mailbox> mailbox, std::vector<int> members, int rank,
       std::uint64_t comm_id)
      : mailbox_(std::move(mailbox)),
        members_(std::make_shared<const std::vector<int>>(std::move(members))),
        rank_(rank),
        comm_id_(comm_id),
        split_seq_(std::make_shared<std::atomic<std::uint64_t>>(0)) {
    PTDP_CHECK(mailbox_ != nullptr);
    PTDP_CHECK_GE(rank_, 0);
    PTDP_CHECK_LT(static_cast<std::size_t>(rank_), members_->size());
  }

  /// A single-member communicator: every collective is a no-op. Lets serial
  /// code paths reuse the tensor-parallel layer implementations unchanged.
  static Comm solo() {
    return Comm(std::make_shared<Mailbox>(), std::vector<int>{0}, 0, /*comm_id=*/0);
  }

  /// Rank of the caller within this communicator.
  int rank() const noexcept { return rank_; }
  /// Number of members.
  int size() const noexcept { return static_cast<int>(members_->size()); }
  /// World rank of member r of this communicator.
  int world_rank_of(int r) const {
    PTDP_CHECK_GE(r, 0);
    PTDP_CHECK_LT(r, size());
    return (*members_)[static_cast<std::size_t>(r)];
  }
  /// World rank of the caller.
  int world_rank() const { return world_rank_of(rank_); }
  /// All member world ranks, in communicator order.
  const std::vector<int>& members() const noexcept { return *members_; }

  // ---- point-to-point -----------------------------------------------------
  //
  // Nonblocking primitives are the real API; the blocking send/recv pair is
  // a thin wrapper (isend is already complete at return, recv is
  // irecv().wait()). User tags must stay below 2^48 — the range above is
  // reserved for collective traffic.

  /// Nonblocking buffered send to communicator rank `dst`. The payload is
  /// copied into the Mailbox before returning, so the returned Request is
  /// already complete and `data` may be reused immediately.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Request isend(std::span<const T> data, int dst, std::uint64_t tag = 0) const {
    PTDP_CHECK_NE(dst, rank_) << "self-send";
    const FaultOutcome fault = fault_hook(FaultSite::kSend);
    if (obs::metrics_on()) {
      obs::MetricsRegistry::instance().on_comm_send(comm_id_, data.size_bytes(),
                                                    tags::is_collective(tag));
    }
    if (fault.drop_message) {
      // Flaky link ate the message. The sender believes it sent (metrics
      // counted the bytes, like a NIC that acked into the void); only the
      // receiver's watchdog can notice.
      return Request();
    }
    std::vector<std::uint8_t> payload(data.size_bytes());
    // Zero-byte messages may carry null pointers, which memcpy must never see.
    if (!payload.empty()) std::memcpy(payload.data(), data.data(), payload.size());
    mailbox_->post(channel(rank_, dst, tag), std::move(payload));
    return Request();  // buffered transport: sends never have an in-flight phase
  }

  /// Nonblocking receive into `data` from communicator rank `src`. `data`
  /// must stay alive and unmoved until the Request completes via wait() or
  /// test(); the payload size must match `data.size_bytes()` exactly.
  /// Posting order on the same (src, tag) channel is the match order (FIFO).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Request irecv(std::span<T> data, int src, std::uint64_t tag = 0) const {
    PTDP_CHECK_NE(src, rank_) << "self-recv";
    fault_hook(FaultSite::kRecv);
    if (obs::metrics_on()) {
      obs::MetricsRegistry::instance().on_comm_recv(comm_id_, data.size_bytes(),
                                                    tags::is_collective(tag));
    }
    return Request(mailbox_, channel(src, rank_, tag),
                   std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(data.data()),
                                           data.size_bytes()));
  }

  /// Buffered send of a trivially-copyable span to communicator rank `dst`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send(std::span<const T> data, int dst, std::uint64_t tag = 0) const {
    isend(data, dst, tag);
  }

  /// Blocking receive into `data` from communicator rank `src`. The payload
  /// size must match `data.size_bytes()` exactly.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void recv(std::span<T> data, int src, std::uint64_t tag = 0) const {
    irecv(data, src, tag).wait();
  }

  /// Simultaneous exchange with a partner (both sides call with the same tag).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void sendrecv(std::span<const T> send_buf, int dst, std::span<T> recv_buf,
                int src, std::uint64_t tag = 0) const {
    send(send_buf, dst, tag);
    recv(recv_buf, src, tag);
  }

  // ---- collectives ---------------------------------------------------------

  /// Dissemination barrier: O(log n) rounds of token exchange.
  void barrier() const;

  /// Broadcast `data` from `root` to all members (binomial tree).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void broadcast(std::span<T> data, int root) const {
    broadcast_bytes(as_writable_bytes(data), root);
  }

  /// In-place ring all-reduce: reduce_scatter_inplace's ring followed by
  /// all_gather_inplace's, traced as one "all_reduce" span.
  void all_reduce(std::span<float> data, ReduceOp op = ReduceOp::kSum) const;
  void all_reduce(std::span<double> data, ReduceOp op = ReduceOp::kSum) const;

  /// Convenience scalar all-reduce.
  float all_reduce_scalar(float value, ReduceOp op = ReduceOp::kSum) const {
    all_reduce(std::span<float>(&value, 1), op);
    return value;
  }

  /// Element range [offset, offset + size) of a buffer.
  struct Range {
    std::size_t offset = 0;
    std::size_t size = 0;
  };
  /// The chunk of a `len`-element buffer this rank owns after
  /// reduce_scatter_inplace: chunk (rank + 1) mod n of the ring's uneven
  /// chunking, where chunk c starts at c*(len/n) + min(c, len%n) and the
  /// first len%n chunks are one element longer.
  Range owned_range(std::size_t len) const;

  /// Phase 1 of all_reduce, in place: afterwards owned_range(data.size())
  /// holds the full reduction, summed in exactly all_reduce's order; the
  /// rest of `data` holds partial sums.
  void reduce_scatter_inplace(std::span<float> data,
                              ReduceOp op = ReduceOp::kSum) const;

  /// Phase 2 of all_reduce, in place: every rank's owned_range(data.size())
  /// is copied to all members. Pure data movement, so any element type
  /// rides it (bf16 weights as well as f32 state).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void all_gather_inplace(std::span<T> data) const {
    all_gather_inplace_bytes(as_writable_bytes(data), sizeof(T));
  }

  /// Ring all-gather: concatenates every member's `in` (equal sizes) into
  /// `out` in rank order. `out.size() == in.size() * size()`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void all_gather(std::span<const T> in, std::span<T> out) const {
    PTDP_CHECK_EQ(out.size(), in.size() * static_cast<std::size_t>(size()));
    all_gather_bytes(as_bytes_span(in), as_writable_bytes(out));
  }

  /// Gather variable payloads to every rank (used for control-plane metadata,
  /// e.g. Comm::split bookkeeping). Returns one buffer per rank.
  std::vector<std::vector<std::uint8_t>> all_gather_variable(
      std::span<const std::uint8_t> in) const;

  // ---- topology ------------------------------------------------------------

  /// MPI_Comm_split: ranks passing the same `color` end up in the same child
  /// communicator, ordered by (key, rank). Collective over all members.
  Comm split(int color, int key) const;

  /// Internal communicator id (stable across ranks of the same communicator).
  std::uint64_t id() const noexcept { return comm_id_; }

 private:
  ChannelKey channel(int src, int dst, std::uint64_t tag) const {
    return ChannelKey{comm_id_, world_rank_of(src), world_rank_of(dst), tag};
  }

  /// Deterministic fault-injection site: counts this op on the installed
  /// FaultPlan (no-op when none). May throw InjectedFault, sleep, or
  /// busy-spin in place; drop directives are returned to the caller. A
  /// hang-forever directive is executed right here: the rank parks until
  /// the world is poisoned — going exactly as silent as a stuck real rank,
  /// while still letting World::run's join complete — and then unwinds as
  /// a secondary WorldPoisoned casualty. The *root cause* surfaces on a
  /// peer whose watchdog expires waiting for this rank (RankTimeout with
  /// src == this world rank), which is how the supervisor attributes the
  /// hang. Requires watchdog timeouts to be armed (World::set_timeouts);
  /// a hang fault without a watchdog deadlocks by design — that is the
  /// failure mode being modeled.
  FaultOutcome fault_hook(FaultSite site) const {
    FaultOutcome out;
    if (FaultPlan* plan = mailbox_->fault_plan()) {
      out = plan->on_op(world_rank(), site);
      if (out.hang_forever) {
        mailbox_->wait_poisoned();
        throw WorldPoisoned();
      }
    }
    return out;
  }

  template <typename T>
  static std::span<const std::uint8_t> as_bytes_span(std::span<const T> s) {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size_bytes()};
  }
  template <typename T>
  static std::span<std::uint8_t> as_writable_bytes(std::span<T> s) {
    return {reinterpret_cast<std::uint8_t*>(s.data()), s.size_bytes()};
  }

  void broadcast_bytes(std::span<std::uint8_t> data, int root) const;
  void all_gather_bytes(std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out) const;
  void all_gather_inplace_bytes(std::span<std::uint8_t> data,
                                std::size_t elem_size) const;

  template <typename F>
  void all_reduce_impl(std::span<F> data, ReduceOp op) const;
  // The two ring halves, without the per-call fault hook, metrics tick and
  // span: the public collectives add those once around them.
  template <typename F>
  void ring_reduce_scatter(std::span<F> data, ReduceOp op, std::uint64_t tag) const;
  void ring_all_gather(std::span<std::uint8_t> data, std::size_t elem_size,
                       std::uint64_t tag) const;

  std::uint64_t next_split_seq() const {
    return split_seq_->fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<Mailbox> mailbox_;
  std::shared_ptr<const std::vector<int>> members_;
  int rank_;
  std::uint64_t comm_id_;
  // Shared among copies of this Comm on the same rank so that split ids stay
  // consistent no matter which copy the caller splits on.
  std::shared_ptr<std::atomic<std::uint64_t>> split_seq_;
};

}  // namespace ptdp::dist
