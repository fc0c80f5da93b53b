#include "ptdp/mem/pool.hpp"

#include <atomic>
#include <mutex>
#include <new>
#include <vector>

namespace ptdp::mem {
namespace {

// Size classes: powers of two from 64 floats (256 B) to 2^24 floats
// (64 MiB). Anything larger is allocated exactly and never pooled —
// giant one-off buffers (full-vocab gathers, reshard scratch) would
// otherwise pin memory forever.
constexpr std::size_t kMinClassLog2 = 6;
constexpr std::size_t kMaxClassLog2 = 24;
constexpr std::size_t kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
constexpr std::size_t kMaxPooledFloats = std::size_t{1} << kMaxClassLog2;
// Per-thread cache depth per class; overflow spills to the global pool.
// Deep enough that a rank thread's steady-state working set never spills:
// a block that spills is re-acquired through the global pool, and whether
// the spill lands before a peer thread's acquire drains it is a scheduling
// race — the loser falls through to the heap, which shows up as sporadic
// steady-state heap_allocs under machine load (ZeroPoolGrowthPerStep).
constexpr std::size_t kThreadCacheCap = 64;
// Global pool depth per class; overflow goes back to the heap.
constexpr std::size_t kGlobalCacheCap = 64;
constexpr std::size_t kAlign = 64;

std::atomic<bool> g_pool_enabled{true};

// True iff cap is exactly one of our size classes — i.e. a block we are
// allowed to recycle. Exact-size huge/pool-off blocks fail this test and
// go straight back to the heap, which is what makes flipping the pool on
// and off mid-process safe.
bool is_class_capacity(std::size_t cap) {
  if (cap < (std::size_t{1} << kMinClassLog2) || cap > kMaxPooledFloats) {
    return false;
  }
  return (cap & (cap - 1)) == 0;
}

std::size_t class_index(std::size_t cap) {
  std::size_t idx = 0;
  while ((std::size_t{1} << (kMinClassLog2 + idx)) < cap) ++idx;
  return idx;
}

float* heap_alloc(std::size_t floats) {
  return static_cast<float*>(
      ::operator new(floats * sizeof(float), std::align_val_t{kAlign}));
}

void heap_free(float* p) { ::operator delete(p, std::align_val_t{kAlign}); }

struct GlobalPool {
  std::mutex mu;
  std::vector<float*> lists[kNumClasses];

  ~GlobalPool() {
    for (auto& list : lists) {
      for (float* p : list) heap_free(p);
    }
  }
};

GlobalPool& global_pool() {
  static GlobalPool* pool = new GlobalPool();  // leak-on-exit is fine;
  return *pool;  // destructor order vs. late thread exits is not.
}

struct GlobalCounters {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> heap_allocs{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> bytes_recycled{0};
};

GlobalCounters& global_counters() {
  static GlobalCounters c;
  return c;
}

void bump_global_live(std::int64_t delta) {
  GlobalCounters& g = global_counters();
  const std::int64_t now =
      g.live.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (delta > 0) {
    std::int64_t prev = g.peak.load(std::memory_order_relaxed);
    while (prev < now &&
           !g.peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
}

struct ThreadCache {
  std::vector<float*> lists[kNumClasses];
  PoolStats stats;

  ~ThreadCache() { flush(); }

  void flush() {
    GlobalPool& gp = global_pool();
    std::lock_guard<std::mutex> lock(gp.mu);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      for (float* p : lists[c]) {
        if (gp.lists[c].size() < kGlobalCacheCap) {
          gp.lists[c].push_back(p);
        } else {
          heap_free(p);
        }
      }
      lists[c].clear();
    }
  }
};

ThreadCache& thread_cache() {
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

bool pool_enabled() { return g_pool_enabled.load(std::memory_order_relaxed); }

void set_pool_enabled(bool on) {
  g_pool_enabled.store(on, std::memory_order_relaxed);
}

std::size_t size_class_floats(std::size_t n) {
  if (n > kMaxPooledFloats) return n;
  std::size_t cap = std::size_t{1} << kMinClassLog2;
  while (cap < n) cap <<= 1;
  return cap;
}

Block acquire(std::size_t n) {
  ThreadCache& tc = thread_cache();
  GlobalCounters& g = global_counters();
  tc.stats.acquires += 1;
  g.acquires.fetch_add(1, std::memory_order_relaxed);

  const std::int64_t bytes = static_cast<std::int64_t>(n * sizeof(float));
  tc.stats.live_bytes += bytes;
  if (tc.stats.live_bytes > tc.stats.peak_bytes) {
    tc.stats.peak_bytes = tc.stats.live_bytes;
  }
  bump_global_live(bytes);

  Block blk;
  if (pool_enabled() && n <= kMaxPooledFloats) {
    blk.capacity = size_class_floats(n);
    const std::size_t c = class_index(blk.capacity);
    if (!tc.lists[c].empty()) {
      blk.data = tc.lists[c].back();
      tc.lists[c].pop_back();
    } else {
      GlobalPool& gp = global_pool();
      std::lock_guard<std::mutex> lock(gp.mu);
      if (!gp.lists[c].empty()) {
        blk.data = gp.lists[c].back();
        gp.lists[c].pop_back();
      }
    }
    if (blk.data != nullptr) {
      tc.stats.pool_hits += 1;
      tc.stats.bytes_recycled += blk.capacity * sizeof(float);
      g.pool_hits.fetch_add(1, std::memory_order_relaxed);
      g.bytes_recycled.fetch_add(blk.capacity * sizeof(float),
                                 std::memory_order_relaxed);
      return blk;
    }
  } else {
    // Pool off or huge: exact-size block, intentionally NOT a class
    // capacity unless n happens to be one — release() sorts it out.
    blk.capacity = n == 0 ? 1 : n;
  }
  blk.data = heap_alloc(blk.capacity);
  tc.stats.heap_allocs += 1;
  g.heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return blk;
}

void release(float* data, std::size_t capacity) {
  if (data == nullptr) return;
  ThreadCache& tc = thread_cache();
  GlobalCounters& g = global_counters();
  tc.stats.releases += 1;
  g.releases.fetch_add(1, std::memory_order_relaxed);

  if (pool_enabled() && is_class_capacity(capacity)) {
    const std::size_t c = class_index(capacity);
    if (tc.lists[c].size() < kThreadCacheCap) {
      tc.lists[c].push_back(data);
      return;
    }
    GlobalPool& gp = global_pool();
    std::lock_guard<std::mutex> lock(gp.mu);
    if (gp.lists[c].size() < kGlobalCacheCap) {
      gp.lists[c].push_back(data);
      return;
    }
  }
  heap_free(data);
}

void account_adjust(std::int64_t floats_delta) {
  const std::int64_t bytes =
      floats_delta * static_cast<std::int64_t>(sizeof(float));
  PoolStats& st = thread_cache().stats;
  st.live_bytes += bytes;
  if (st.live_bytes > st.peak_bytes) st.peak_bytes = st.live_bytes;
  bump_global_live(bytes);
}

PoolStats thread_stats() { return thread_cache().stats; }

PoolStats global_stats() {
  GlobalCounters& g = global_counters();
  PoolStats s;
  s.live_bytes = g.live.load(std::memory_order_relaxed);
  s.peak_bytes = g.peak.load(std::memory_order_relaxed);
  s.acquires = g.acquires.load(std::memory_order_relaxed);
  s.pool_hits = g.pool_hits.load(std::memory_order_relaxed);
  s.heap_allocs = g.heap_allocs.load(std::memory_order_relaxed);
  s.releases = g.releases.load(std::memory_order_relaxed);
  s.bytes_recycled = g.bytes_recycled.load(std::memory_order_relaxed);
  return s;
}

void reset_thread_peak() {
  ThreadCache& tc = thread_cache();
  tc.stats.peak_bytes = tc.stats.live_bytes;
}

void reset_global_peak() {
  GlobalCounters& g = global_counters();
  g.peak.store(g.live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

void trim_thread_cache() { thread_cache().flush(); }

Buffer::Buffer(std::size_t n) : block_(acquire(n)), size_(n) {}

Buffer::~Buffer() {
  account_adjust(-static_cast<std::int64_t>(size_));
  release(block_.data, block_.capacity);
}

}  // namespace ptdp::mem
