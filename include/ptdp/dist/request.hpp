#pragma once

// Request: the completion handle for nonblocking point-to-point operations
// (Comm::isend / Comm::irecv), modeled on MPI_Request.
//
// A send Request is born complete: the Mailbox buffers the payload at post
// time, so isend never has an in-flight phase. A receive Request owns the
// (channel, destination buffer) pair and completes on the *caller's* rank
// thread — test() polls Mailbox::try_take, wait() parks in Mailbox::take.
// No helper-pool thread ever touches a Request, so the DESIGN.md §8
// pool-separation invariant is untouched: rank threads may block in
// rendezvous, the intra-op compute pool never does.
//
// The destination buffer must stay alive and unmoved until the Request
// completes (same contract as MPI). Requests are move-only; destroying an
// incomplete receive Request is an error (PTDP_CHECK), because the message
// would be silently dropped and a later receive on the same channel would
// see the wrong payload.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "ptdp/dist/mailbox.hpp"
#include "ptdp/runtime/check.hpp"

namespace ptdp::dist {

class Request {
 public:
  /// Default-constructed and send Requests are already complete.
  Request() = default;

  /// An in-flight receive into `dst` (made by Comm::irecv).
  Request(std::shared_ptr<Mailbox> mailbox, ChannelKey key, std::span<std::uint8_t> dst)
      : state_(std::make_unique<RecvState>(std::move(mailbox), key, dst)) {}

  Request(Request&&) noexcept = default;
  Request& operator=(Request&& other) noexcept {
    if (this != &other) {
      PTDP_CHECK(done()) << "overwriting an incomplete receive Request";
      state_ = std::move(other.state_);
    }
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ~Request() noexcept(false) {
    // An abandoned in-flight receive would desynchronize the FIFO channel,
    // so flag it — but stay silent while an exception is already unwinding
    // the stack (rank failure / poisoned world): the World resets the
    // Mailbox and bumps the comm id after a failed run, so nothing leaks.
    if (state_ != nullptr && !state_->mailbox->poisoned() &&
        std::uncaught_exceptions() == 0) {
      PTDP_CHECK(false) << "Request destroyed before completion";
    }
  }

  /// True once the operation has completed (always true for sends).
  bool done() const noexcept { return state_ == nullptr; }

  /// Non-blocking completion probe: tries to match the message and copy it
  /// into the destination buffer. Returns done().
  bool test() {
    if (state_ == nullptr) return true;
    std::optional<std::vector<std::uint8_t>> payload =
        state_->mailbox->try_take(state_->key);
    if (!payload.has_value()) return false;
    deliver(*payload);
    return true;
  }

  /// Blocks until the operation completes. Throws WorldPoisoned if a peer
  /// rank died (mirroring the blocking recv path). When the Mailbox has a
  /// watchdog deadline configured (TimeoutOptions::op_timeout_ms > 0), the
  /// wait re-probes in exponentially backed-off slices and throws
  /// RankTimeout once the deadline passes with no message — attributing
  /// the hang to the sender rank on the channel. Time spent blocked here is
  /// charged to this thread's comm-wait accumulator (comm_wait_ns), which
  /// is what lets the health monitor tell a straggler (high busy, low
  /// wait) from its victims (low busy, high wait).
  void wait() {
    if (state_ == nullptr) return;
    const auto start = std::chrono::steady_clock::now();
    struct WaitCharge {
      std::chrono::steady_clock::time_point t0;
      ~WaitCharge() {
        add_comm_wait_ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      }
    } charge{start};

    const TimeoutOptions t = state_->mailbox->timeouts();
    if (t.op_timeout_ms <= 0) {
      std::vector<std::uint8_t> payload = state_->mailbox->take(state_->key);
      deliver(payload);
      return;
    }
    const auto deadline = start + std::chrono::milliseconds(t.op_timeout_ms);
    std::int64_t slice_ms = std::max<std::int64_t>(1, t.probe_initial_ms);
    int retries = 0;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        const ChannelKey key = state_->key;
        // Drop the recv state first: the message is declared lost, and the
        // destructor must not re-flag this request while RankTimeout
        // unwinds the rank.
        state_.reset();
        throw RankTimeout(
            key.src, key.dst, key.tag,
            std::chrono::duration_cast<std::chrono::milliseconds>(now - start).count(),
            retries);
      }
      const auto slice_end =
          std::min(deadline, now + std::chrono::milliseconds(slice_ms));
      std::optional<std::vector<std::uint8_t>> payload =
          state_->mailbox->take_until(state_->key, slice_end);
      if (payload.has_value()) {
        deliver(*payload);
        return;
      }
      ++retries;
      slice_ms = std::min<std::int64_t>(
          t.probe_max_ms > 0 ? t.probe_max_ms : slice_ms,
          static_cast<std::int64_t>(static_cast<double>(slice_ms) *
                                    std::max(1.0, t.probe_backoff)));
    }
  }

 private:
  struct RecvState {
    std::shared_ptr<Mailbox> mailbox;
    ChannelKey key;
    std::span<std::uint8_t> dst;
    RecvState(std::shared_ptr<Mailbox> m, const ChannelKey& k, std::span<std::uint8_t> d)
        : mailbox(std::move(m)), key(k), dst(d) {}
  };

  void deliver(const std::vector<std::uint8_t>& payload) {
    PTDP_CHECK_EQ(payload.size(), state_->dst.size())
        << "message size mismatch on tag " << state_->key.tag << " src "
        << state_->key.src;
    // Zero-byte messages may carry null pointers, which memcpy must never see.
    if (!payload.empty()) std::memcpy(state_->dst.data(), payload.data(), payload.size());
    state_.reset();
  }

  // null == complete. unique_ptr keeps Request movable while the channel
  // key/buffer stay stable for the Mailbox lookups.
  std::unique_ptr<RecvState> state_;
};

}  // namespace ptdp::dist
