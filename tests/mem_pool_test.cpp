// Memory-plane tests (DESIGN.md §12): size-class rounding, byte-exact
// live/peak accounting, the set_pool_enabled toggle, a multi-threaded
// alloc/free stress run (ASan/TSan clean), zero-copy dim-0 tensor views,
// and the headline bitwise guarantee — a (p, t, d) = (2, 2, 2) training
// run produces identical weights with the pool on and off.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/mem/pool.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp {
namespace {

using tensor::Tensor;

// Restores the pool toggle even if the test body throws.
struct PoolGuard {
  bool saved = mem::pool_enabled();
  ~PoolGuard() { mem::set_pool_enabled(saved); }
};

TEST(MemPoolTest, SizeClassRounding) {
  EXPECT_EQ(mem::size_class_floats(0), 64u);
  EXPECT_EQ(mem::size_class_floats(1), 64u);
  EXPECT_EQ(mem::size_class_floats(64), 64u);
  EXPECT_EQ(mem::size_class_floats(65), 128u);
  EXPECT_EQ(mem::size_class_floats(1000), 1024u);
  EXPECT_EQ(mem::size_class_floats(1u << 24), 1u << 24);
  // Above the largest class the request is passed through exactly.
  EXPECT_EQ(mem::size_class_floats((1u << 24) + 1), (1u << 24) + 1);
}

TEST(MemPoolTest, AcquireReleaseRecycles) {
  PoolGuard guard;
  mem::set_pool_enabled(true);
  mem::trim_thread_cache();

  mem::Block a = mem::acquire(100);
  ASSERT_NE(a.data, nullptr);
  EXPECT_EQ(a.capacity, 128u);
  float* ptr = a.data;
  mem::release(a.data, a.capacity);

  // Same size class comes back off the thread-local free list.
  const mem::PoolStats before = mem::thread_stats();
  mem::Block b = mem::acquire(70);
  EXPECT_EQ(b.data, ptr);
  const mem::PoolStats after = mem::thread_stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
  mem::release(b.data, b.capacity);
}

TEST(MemPoolTest, ThreadAccountingIsByteExact) {
  PoolGuard guard;
  mem::set_pool_enabled(true);
  const mem::PoolStats base = mem::thread_stats();
  {
    Tensor t = Tensor::empty({100});  // 400 requested bytes
    const mem::PoolStats live = mem::thread_stats();
    EXPECT_EQ(live.live_bytes - base.live_bytes, 400);
    EXPECT_GE(live.peak_bytes, live.live_bytes);
  }
  const mem::PoolStats done = mem::thread_stats();
  EXPECT_EQ(done.live_bytes, base.live_bytes);

  mem::reset_thread_peak();
  EXPECT_EQ(mem::thread_stats().peak_bytes, mem::thread_stats().live_bytes);
  {
    Tensor a = Tensor::empty({1000});
    Tensor b = Tensor::empty({1000});
    EXPECT_EQ(mem::thread_stats().peak_bytes - done.live_bytes, 8000);
  }
}

TEST(MemPoolTest, EscapeHatchDisablesRecycling) {
  PoolGuard guard;
  mem::set_pool_enabled(false);
  mem::Block a = mem::acquire(100);
  // Pool off: exact-size block, not rounded to a class.
  EXPECT_EQ(a.capacity, 100u);
  const mem::PoolStats before = mem::thread_stats();
  mem::release(a.data, a.capacity);
  mem::Block b = mem::acquire(100);
  // Never served from a free list.
  EXPECT_EQ(mem::thread_stats().pool_hits, before.pool_hits);
  mem::release(b.data, b.capacity);
}

TEST(MemPoolTest, ToggleMidstreamIsSafe) {
  PoolGuard guard;
  // Blocks allocated pool-off must be releasable pool-on and vice versa:
  // release() keys off the block's capacity tag, not the current toggle.
  mem::set_pool_enabled(false);
  mem::Block off = mem::acquire(100);
  mem::set_pool_enabled(true);
  mem::Block on = mem::acquire(100);
  mem::set_pool_enabled(false);
  mem::release(on.data, on.capacity);
  mem::set_pool_enabled(true);
  mem::release(off.data, off.capacity);
}

TEST(MemPoolTest, HugeBlocksAreNotPooled) {
  PoolGuard guard;
  mem::set_pool_enabled(true);
  const std::size_t huge = (std::size_t{1} << 24) + 1;
  mem::Block a = mem::acquire(huge);
  EXPECT_EQ(a.capacity, huge);
  const mem::PoolStats before = mem::thread_stats();
  mem::release(a.data, a.capacity);
  mem::Block b = mem::acquire(huge);
  EXPECT_EQ(mem::thread_stats().pool_hits, before.pool_hits);
  mem::release(b.data, b.capacity);
}

// Concurrent alloc/free churn across size classes from many threads,
// including cross-thread hand-off through tensors captured by another
// thread. Run under TSan/ASan in CI; asserts only that data written is
// read back intact and global live-bytes returns to its baseline.
TEST(MemPoolStressTest, MultiThreadedChurn) {
  PoolGuard guard;
  mem::set_pool_enabled(true);
  const std::int64_t base_live = mem::global_stats().live_bytes;

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w] {
      std::vector<Tensor> held;
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(w + 1);
      auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t n = 1 + static_cast<std::int64_t>(next() % 5000);
        Tensor t = Tensor::empty({n});
        const float tag = static_cast<float>(w * kIters + i);
        t.fill(tag);
        held.push_back(std::move(t));
        if (held.size() > 8 || (next() & 1)) {
          const std::size_t victim = next() % held.size();
          const float want =
              held[victim].data()[0];  // whatever tag it was filled with
          for (float v : held[victim].data()) ASSERT_EQ(v, want);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
        }
      }
      mem::trim_thread_cache();
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mem::global_stats().live_bytes, base_live);
  EXPECT_GT(mem::global_stats().pool_hits, 0u);
}

// ---- zero-copy views -------------------------------------------------------

TEST(TensorViewTest, LeadingDimSliceSharesStorage) {
  Tensor a = Tensor::from_values({0, 1, 2, 3, 4, 5});
  Tensor a2 = a.view({3, 2});
  Tensor s = a2.slice(0, 1, 2);  // rows 1..2
  ASSERT_EQ(s.shape(), (tensor::Shape{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 2.0f);
  EXPECT_EQ(s.at({1, 1}), 5.0f);
  // Writes are visible both ways: it is the same storage.
  s.at({0, 0}) = 42.0f;
  EXPECT_EQ(a2.at({1, 0}), 42.0f);
  EXPECT_EQ(s.data().data(), a2.data().data() + 2);
}

TEST(TensorViewTest, SplitDim0ReturnsViews) {
  Tensor a = Tensor::arange(12).view({4, 3});
  auto parts = tensor::split(a, 2, 0);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].data().data(), a.data().data());
  EXPECT_EQ(parts[1].data().data(), a.data().data() + 6);
  parts[1].fill(-1.0f);
  EXPECT_EQ(a.at({2, 0}), -1.0f);
}

TEST(TensorViewTest, ViewOfSliceKeepsOffset) {
  Tensor a = Tensor::arange(12).view({4, 3});
  Tensor s = a.slice(0, 2, 2).view({6});
  EXPECT_EQ(s.data()[0], 6.0f);
  Tensor c = s.clone();  // deep copy drops the aliasing
  c.fill(0.0f);
  EXPECT_EQ(a.at({2, 0}), 6.0f);
}

TEST(TensorViewTest, SliceViewKeepsParentStorageAlive) {
  Tensor s;
  {
    Tensor a = Tensor::arange(10);
    s = a.slice(0, 5, 5);
  }  // parent destroyed; the view's shared storage must survive
  EXPECT_EQ(s.data()[0], 5.0f);
  EXPECT_EQ(s.data()[4], 9.0f);
}

TEST(TensorViewTest, NonLeadingSliceStillCopies) {
  Tensor a = Tensor::arange(12).view({3, 4});
  Tensor s = a.slice(1, 1, 2);
  s.fill(-7.0f);
  EXPECT_EQ(a.at({0, 1}), 1.0f);  // parent untouched
}

// ---- bitwise pool-on/pool-off guarantee ------------------------------------

// Runs `steps` of (p, t, d) = (2, 2, 2) interleaved-schedule training and
// returns every parameter byte of every rank, in deterministic order.
std::vector<unsigned char> run_weight_bytes(bool pool_on, int steps) {
  PoolGuard guard;
  mem::set_pool_enabled(pool_on);

  model::GptConfig c;
  c.num_layers = 4;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.1f;  // exercise the RNG-heavy path too
  c.seed = 2024;
  const std::int64_t B = 8, b = 1;

  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);

  constexpr int kRanks = 8;
  std::vector<std::vector<unsigned char>> per_rank(kRanks);
  dist::World world(kRanks);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.t = 2;
    options.parallel.d = 2;
    options.parallel.v = 2;
    options.parallel.b = b;
    options.parallel.schedule = pipeline::ScheduleType::kInterleaved;
    options.parallel.recompute = true;
    options.parallel.scatter_gather = true;
    options.global_batch = B;
    options.optimizer = core::EngineOptions::Opt::kAdam;
    options.adam.lr = 1e-3f;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, B, b, 2, engine.groups().coord().data,
                               /*seed=*/88);
    for (int s = 0; s < steps; ++s) {
      auto mbs = loader.next_batch(s);
      engine.train_step(mbs);
    }
    std::vector<unsigned char>& bytes = per_rank[static_cast<std::size_t>(comm.rank())];
    for (const model::Param* p : engine.params()) {
      auto d = p->value.data();
      const auto* raw = reinterpret_cast<const unsigned char*>(d.data());
      bytes.insert(bytes.end(), raw, raw + d.size_bytes());
    }
  });

  std::vector<unsigned char> all;
  for (auto& r : per_rank) all.insert(all.end(), r.begin(), r.end());
  return all;
}

TEST(MemPoolBitwiseTest, PooledTrainingMatchesPoolOffExactly) {
  const auto pooled = run_weight_bytes(/*pool_on=*/true, /*steps=*/3);
  const auto plain = run_weight_bytes(/*pool_on=*/false, /*steps=*/3);
  ASSERT_EQ(pooled.size(), plain.size());
  ASSERT_GT(pooled.size(), 0u);
  EXPECT_EQ(std::memcmp(pooled.data(), plain.data(), pooled.size()), 0)
      << "pool on/off changed training arithmetic";
}

// Steady-state iterations should be served almost entirely from the pool:
// the per-step heap_allocs count must collapse vs the unpooled run (the
// >=10x allocation-count acceptance criterion).
TEST(MemPoolSteadyStateTest, HeapAllocsCollapseAfterWarmup) {
  PoolGuard guard;

  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.0f;
  c.seed = 2024;
  const std::int64_t B = 4, b = 1;

  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(2000), c.seq);

  auto measure = [&](bool pool_on) {
    mem::set_pool_enabled(pool_on);
    core::StepStats last{};
    dist::World world(1);
    world.run([&](dist::Comm& comm) {
      core::EngineOptions options;
      options.model = c;
      options.parallel.b = b;
      options.global_batch = B;
      options.optimizer = core::EngineOptions::Opt::kSgd;
      options.sgd.lr = 0.1f;
      core::PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, B, b, 1, 0, /*seed=*/88);
      for (int s = 0; s < 4; ++s) {  // step 0 warms the pool
        auto mbs = loader.next_batch(s);
        engine.train_step(mbs);
      }
      last = engine.last_stats();
    });
    return last;
  };

  const core::StepStats pooled = measure(true);
  const core::StepStats plain = measure(false);
  ASSERT_GT(plain.mem_heap_allocs, 0u);
  EXPECT_GT(pooled.mem_acquires, 0u);
  EXPECT_GT(pooled.mem_pool_hit_rate, 0.9);
  EXPECT_LE(pooled.mem_heap_allocs * 10, plain.mem_heap_allocs)
      << "pooled steady-state step should allocate >=10x less from the heap"
      << " (pooled " << pooled.mem_heap_allocs << " vs unpooled "
      << plain.mem_heap_allocs << ")";
  EXPECT_GT(pooled.peak_memory_bytes, 0);
}

// Zero steady-state pool growth: once the first step has warmed the pool,
// the planned arenas (GradReducer staging, head scratch) and every
// transient tensor reuse recycled blocks — per-rank live bytes between
// steps are constant and no step touches the heap again. d = 2 so the
// data-parallel GradReducer (arena-backed bucket + copy-back) is on the
// measured path.
TEST(MemPoolSteadyStateTest, ZeroPoolGrowthPerStep) {
  PoolGuard guard;
  mem::set_pool_enabled(true);

  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.1f;
  c.seed = 2024;
  const std::int64_t B = 4, b = 1;
  constexpr int kSteps = 6;

  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(2000), c.seq);

  constexpr int kRanks = 2;
  std::vector<std::vector<std::int64_t>> live(kRanks);
  std::vector<std::vector<std::uint64_t>> heap(kRanks);
  dist::World world(kRanks);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel.d = kRanks;
    options.parallel.b = b;
    options.global_batch = B;
    options.optimizer = core::EngineOptions::Opt::kAdam;
    options.adam.lr = 1e-3f;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, B, b, kRanks,
                               engine.groups().coord().data, /*seed=*/88);
    for (int s = 0; s < kSteps; ++s) {
      auto mbs = loader.next_batch(s);
      engine.train_step(mbs);
      const mem::PoolStats st = mem::thread_stats();
      live[static_cast<std::size_t>(comm.rank())].push_back(st.live_bytes);
      heap[static_cast<std::size_t>(comm.rank())].push_back(st.heap_allocs);
    }
  });

  for (int r = 0; r < kRanks; ++r) {
    ASSERT_EQ(live[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(kSteps));
    for (int s = 1; s < kSteps; ++s) {
      EXPECT_EQ(live[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)],
                live[static_cast<std::size_t>(r)][1])
          << "rank " << r << " live bytes drifted at step " << s;
    }
    for (int s = 2; s < kSteps; ++s) {
      EXPECT_EQ(heap[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)],
                heap[static_cast<std::size_t>(r)][1])
          << "rank " << r << " hit the heap after warmup, step " << s;
    }
  }
}

}  // namespace
}  // namespace ptdp
