#pragma once

// ptdp::mem — the memory plane (DESIGN.md §12). A size-class pooled
// allocator for tensor storage: power-of-two size classes, per-thread
// free lists with a locked global fallback, so rank threads recycle the
// buffers of previous microbatches/iterations without ever contending.
//
// Contract:
//  - acquire(n) returns >= n floats; the block's capacity is the size
//    class it came from (or exactly n for huge / pool-off allocations).
//    Contents are UNINITIALIZED — callers that need zeros must fill.
//  - release(p, capacity) must pass back the capacity acquire() returned;
//    blocks whose capacity matches a size class are recycled, everything
//    else goes straight back to the heap. This keeps mixed pool-on /
//    pool-off lifetimes safe (the toggle can flip mid-process).
//  - Pooling is on by default; set_pool_enabled() flips it at runtime
//    (tests/benches). Pooling is bitwise-neutral by construction: it only
//    changes *where* a buffer comes from, never what is written into it.
//
// Accounting is byte-exact over *requested* bytes (numel * 4), so the
// measured peak is directly comparable to the §3.5 analytic activation
// model (which also counts exact element bytes, not rounded capacity):
//  - thread_stats(): the calling thread's counters. Tensors are allocated
//    and freed on the owning rank thread, so this is the per-rank figure
//    the engine reports in StepStats / obs gauges.
//  - global_stats(): process-wide aggregate (relaxed atomics).
//
// Cross-thread frees are safe (the global pool mutex publishes recycled
// blocks between threads); they debit the freeing thread's live counter,
// which is why thread live bytes are signed.

#include <cstddef>
#include <cstdint>

namespace ptdp::mem {

struct PoolStats {
  std::int64_t live_bytes = 0;   ///< requested bytes currently outstanding
  std::int64_t peak_bytes = 0;   ///< high-water mark of live_bytes
  std::uint64_t acquires = 0;    ///< total acquire() calls
  std::uint64_t pool_hits = 0;   ///< acquires served from a free list
  std::uint64_t heap_allocs = 0; ///< acquires that fell through to the heap
  std::uint64_t releases = 0;
  std::uint64_t bytes_recycled = 0;  ///< capacity bytes handed out from free lists

  double hit_rate() const {
    return acquires > 0 ? static_cast<double>(pool_hits) /
                              static_cast<double>(acquires)
                        : 0.0;
  }
};

/// Pooling toggle: on by default, set_pool_enabled flips it at runtime.
bool pool_enabled();
void set_pool_enabled(bool on);

/// Smallest size class that fits n floats (n above the largest class is
/// returned unchanged: huge blocks are never pooled).
std::size_t size_class_floats(std::size_t n);

struct Block {
  float* data = nullptr;
  std::size_t capacity = 0;  ///< floats; pass back to release() verbatim
};

/// >= n floats, uninitialized. Never returns nullptr (n == 0 still yields
/// a real minimum-class block so callers can rely on a distinct pointer).
Block acquire(std::size_t n);
void release(float* data, std::size_t capacity);

/// Adjusts the calling thread's and the global live counters by
/// `floats_delta * sizeof(float)` requested bytes (peaks track positive
/// deltas). acquire() credits the requested size but release() cannot
/// debit it (it only sees capacity), so raw acquire/release users
/// (Buffer, Arena) call this with the negated request alongside release()
/// — keeping live/peak accounting byte-exact over requested bytes.
void account_adjust(std::int64_t floats_delta);

PoolStats thread_stats();
PoolStats global_stats();

/// Resets the peak-bytes high-water mark to the current live bytes. The
/// thread variant is what the engine calls at step start so StepStats
/// reports the peak *within* the step.
void reset_thread_peak();
void reset_global_peak();

/// Flushes the calling thread's free lists into the global pool (also
/// happens automatically at thread exit). Mainly for tests that want a
/// clean slate between phases.
void trim_thread_cache();

/// RAII float buffer over acquire/release — the storage unit behind
/// tensor::Tensor. Accounts requested bytes on this thread at
/// construction and destruction.
class Buffer {
 public:
  explicit Buffer(std::size_t n);
  ~Buffer();
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  float* data() noexcept { return block_.data; }
  const float* data() const noexcept { return block_.data; }
  std::size_t size() const noexcept { return size_; }  ///< requested floats

 private:
  Block block_;
  std::size_t size_;
};

}  // namespace ptdp::mem
