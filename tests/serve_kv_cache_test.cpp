// Paged KV cache tests: block allocator alloc/free/reuse and hard budget,
// fragmentation under churn, byte-exact accounting, zero steady-state pool
// growth across request lifecycles, gather() and the in-place row accessor
// returning exactly the bytes written, and decode through KvStore
// decorators: one that implements only write/gather/drop decodes through
// the gather-based rows() default bitwise like the bare cache, and one
// whose gather() fails shows the decode path never calls it.

#include <gtest/gtest.h>

#include <vector>

#include "ptdp/model/stage.hpp"
#include "ptdp/serve/kv_cache.hpp"

namespace ptdp::serve {
namespace {

TEST(BlockAllocator, AllocFreeReuse) {
  BlockAllocator alloc({/*block_floats=*/64, /*capacity_blocks=*/4, false});
  EXPECT_EQ(alloc.free_blocks(), 4);
  EXPECT_EQ(alloc.live_blocks(), 0);

  const std::int32_t a = alloc.allocate();
  const std::int32_t b = alloc.allocate();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.live_blocks(), 2);
  EXPECT_EQ(alloc.pool_acquires(), 2);

  // Freed blocks come back (LIFO) without touching the pool again.
  alloc.free(b);
  EXPECT_EQ(alloc.live_blocks(), 1);
  const std::int32_t c = alloc.allocate();
  EXPECT_EQ(c, b);
  EXPECT_EQ(alloc.pool_acquires(), 2);

  // Data pointers are stable and distinct.
  EXPECT_NE(alloc.data(a), alloc.data(c));
  alloc.data(a)[0] = 1.0f;
  alloc.data(c)[0] = 2.0f;
  EXPECT_EQ(alloc.data(a)[0], 1.0f);
  EXPECT_EQ(alloc.data(c)[0], 2.0f);
}

TEST(BlockAllocator, HardBudgetReturnsMinusOne) {
  BlockAllocator alloc({16, 2, false});
  EXPECT_GE(alloc.allocate(), 0);
  EXPECT_GE(alloc.allocate(), 0);
  EXPECT_EQ(alloc.allocate(), -1);  // exhausted, not a throw
  EXPECT_EQ(alloc.free_blocks(), 0);
  alloc.free(0);
  EXPECT_GE(alloc.allocate(), 0);  // freed capacity is usable again
}

TEST(BlockAllocator, ByteExactAccounting) {
  BlockAllocator alloc({128, 8, false});
  EXPECT_EQ(alloc.block_bytes(), 128 * static_cast<std::int64_t>(sizeof(float)));
  const std::int32_t a = alloc.allocate();
  const std::int32_t b = alloc.allocate();
  EXPECT_EQ(alloc.live_bytes(), 2 * alloc.block_bytes());
  EXPECT_EQ(alloc.peak_bytes(), 2 * alloc.block_bytes());
  alloc.free(a);
  alloc.free(b);
  EXPECT_EQ(alloc.live_bytes(), 0);
  // Peak is a high-water mark: it never decreases.
  EXPECT_EQ(alloc.peak_bytes(), 2 * alloc.block_bytes());
}

TEST(BlockAllocator, FragmentationChurnNeverGrowsPool) {
  // Interleaved alloc/free with holes: the free list must absorb all
  // churn once every block has been touched.
  BlockAllocator alloc({32, 16, false});
  Rng rng(3);
  std::vector<std::int32_t> held;
  for (int iter = 0; iter < 2000; ++iter) {
    if (!held.empty() && rng.next_bernoulli(0.5)) {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(held.size()));
      alloc.free(held[i]);
      held[i] = held.back();
      held.pop_back();
    } else {
      const std::int32_t id = alloc.allocate();
      if (id >= 0) held.push_back(id);
    }
    ASSERT_LE(alloc.live_blocks(), 16);
    ASSERT_EQ(alloc.live_blocks(), static_cast<std::int64_t>(held.size()));
  }
  for (std::int32_t id : held) alloc.free(id);
  EXPECT_EQ(alloc.live_blocks(), 0);
  EXPECT_LE(alloc.pool_acquires(), 16);  // never more than one per slot
}

KvCacheOptions tiny_kv(std::int64_t capacity = 8) {
  KvCacheOptions o;
  o.num_layers = 2;
  o.hidden_local = 6;
  o.block_tokens = 4;
  o.capacity_blocks = capacity;
  o.record_metrics = false;
  return o;
}

tensor::Tensor rows(std::int64_t n, std::int64_t w, float base) {
  tensor::Tensor t({n, w});
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = base + static_cast<float>(i) * 0.25f;
  }
  return t;
}

TEST(PagedKvCache, ReserveWriteGatherRoundTrip) {
  PagedKvCache kv(tiny_kv());
  ASSERT_TRUE(kv.try_reserve(7, 6));  // 6 tokens -> 2 blocks of 4
  EXPECT_EQ(kv.seq_blocks(7), 2);

  // Two appends per layer, like chunked prefill.
  for (std::int64_t layer = 0; layer < 2; ++layer) {
    kv.write(7, layer, 0, rows(4, 6, 1.0f + static_cast<float>(layer)),
             rows(4, 6, 50.0f));
    kv.write(7, layer, 4, rows(2, 6, 9.0f), rows(2, 6, 90.0f));
  }
  tensor::Tensor k({2, 6, 3});  // heads_local=2, len=6, dk=3
  tensor::Tensor v({2, 6, 3});
  kv.gather(7, 1, 6, k, v);
  // Row 0 of layer 1's K was [2.0, 2.25, ...]: head 0 gets the first dk
  // floats, head 1 the next dk (head-major within hidden_local).
  EXPECT_EQ(k.at({0, 0, 0}), 2.0f);
  EXPECT_EQ(k.at({0, 0, 1}), 2.25f);
  EXPECT_EQ(k.at({1, 0, 0}), 2.75f);  // head 1 starts at float 3
  // Position 4 came from the second append's row 0 (base 9.0).
  EXPECT_EQ(k.at({0, 4, 0}), 9.0f);
  EXPECT_EQ(v.at({0, 4, 0}), 90.0f);

  kv.drop(7);
  EXPECT_EQ(kv.seq_blocks(7), 0);
  EXPECT_EQ(kv.free_blocks(), 8);
}

TEST(PagedKvCache, GatherAndRowsReturnWrittenBytes) {
  // 11 positions in blocks of 4 (3 blocks, the last partial), 2 layers,
  // appended in uneven chunks: gather() and rows() must both hand back
  // exactly the rows the test wrote.
  const std::int64_t layers = 2, hl = 8, heads = 2, dk = 4, len = 11;
  PagedKvCache paged({layers, hl, /*block_tokens=*/4, /*capacity=*/16, false});
  ASSERT_TRUE(paged.try_reserve(1, len));
  EXPECT_EQ(paged.seq_blocks(1), 3);
  // written[layer][which] holds [len, hl] rows, K then V.
  std::vector<std::vector<std::vector<float>>> written(
      layers, std::vector<std::vector<float>>(2));
  Rng rng(11);
  std::int64_t pos = 0;
  for (const std::int64_t chunk : {3LL, 1LL, 5LL, 2LL}) {
    for (std::int64_t layer = 0; layer < layers; ++layer) {
      tensor::Tensor k({chunk, hl}), v({chunk, hl});
      for (auto& x : k.data()) x = static_cast<float>(rng.next_gaussian());
      for (auto& x : v.data()) x = static_cast<float>(rng.next_gaussian());
      paged.write(1, layer, pos, k, v);
      auto& w = written[static_cast<std::size_t>(layer)];
      w[0].insert(w[0].end(), k.data().begin(), k.data().end());
      w[1].insert(w[1].end(), v.data().begin(), v.data().end());
    }
    pos += chunk;
  }
  ASSERT_EQ(pos, len);
  for (std::int64_t layer = 0; layer < layers; ++layer) {
    const auto& w = written[static_cast<std::size_t>(layer)];
    tensor::Tensor gk({heads, len, dk}), gv({heads, len, dk});
    paged.gather(1, layer, len, gk, gv);
    model::KvRows r;
    paged.rows(1, layer, len, heads, dk, r);
    ASSERT_EQ(r.k.size(), static_cast<std::size_t>(len));
    ASSERT_EQ(r.v.size(), static_cast<std::size_t>(len));
    EXPECT_EQ(r.head_stride, dk);  // the block slots, not a copy
    for (std::int64_t p = 0; p < len; ++p) {
      for (std::int64_t h = 0; h < heads; ++h) {
        for (std::int64_t d = 0; d < dk; ++d) {
          const auto col = static_cast<std::size_t>(p * hl + h * dk + d);
          const auto at = static_cast<std::size_t>(h * r.head_stride + d);
          ASSERT_EQ(gk.at({h, p, d}), w[0][col]);
          ASSERT_EQ(gv.at({h, p, d}), w[1][col]);
          ASSERT_EQ(r.k[static_cast<std::size_t>(p)][at], w[0][col]);
          ASSERT_EQ(r.v[static_cast<std::size_t>(p)][at], w[1][col]);
        }
      }
    }
  }
}

/// A KvStore decorator that implements only write/gather/drop, the way a
/// timing wrapper does: decode reaches its K/V through rows()'s default,
/// which gathers.
class GatherOnlyKv final : public model::KvStore {
 public:
  explicit GatherOnlyKv(model::KvStore& inner) : inner_(inner) {}
  void write(std::uint64_t seq, std::int64_t layer, std::int64_t pos,
             const tensor::Tensor& k2d, const tensor::Tensor& v2d) override {
    inner_.write(seq, layer, pos, k2d, v2d);
  }
  void gather(std::uint64_t seq, std::int64_t layer, std::int64_t len,
              tensor::Tensor& k, tensor::Tensor& v) const override {
    ++gathers;
    inner_.gather(seq, layer, len, k, v);
  }
  void drop(std::uint64_t seq) override { inner_.drop(seq); }
  mutable std::int64_t gathers = 0;

 private:
  model::KvStore& inner_;
};

/// A decorator that forwards rows() and fails on gather(): decoding through
/// it proves the decode path reads K/V only in place.
class NoGatherKv final : public model::KvStore {
 public:
  explicit NoGatherKv(model::KvStore& inner) : inner_(inner) {}
  void write(std::uint64_t seq, std::int64_t layer, std::int64_t pos,
             const tensor::Tensor& k2d, const tensor::Tensor& v2d) override {
    inner_.write(seq, layer, pos, k2d, v2d);
  }
  void gather(std::uint64_t, std::int64_t, std::int64_t, tensor::Tensor&,
              tensor::Tensor&) const override {
    PTDP_CHECK(false) << "the decode path called gather()";
  }
  void rows(std::uint64_t seq, std::int64_t layer, std::int64_t len,
            std::int64_t heads, std::int64_t dk, model::KvRows& out) const override {
    inner_.rows(seq, layer, len, heads, dk, out);
  }
  void drop(std::uint64_t seq) override { inner_.drop(seq); }

 private:
  model::KvStore& inner_;
};

model::GptConfig tiny_model() {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 32;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 24;
  c.dropout = 0.0f;
  c.seed = 41;
  return c;
}

enum class Via { kBare, kGatherOnly, kNoGather };

/// Two sequences: a 5- and a 3-token prefill chunk, then four batched
/// single-token steps through the store `via` names, each step's logits
/// appended to the result. `gathers` receives GatherOnlyKv's gather count.
std::vector<float> decode_through(model::GptStage& stage, Via via,
                                  std::int64_t* gathers = nullptr) {
  const model::GptConfig& c = stage.config();
  PagedKvCache cache({c.num_layers, stage.kv_heads_local() * stage.kv_head_dim(),
                      /*block_tokens=*/4, /*capacity=*/8, false});
  EXPECT_TRUE(cache.try_reserve(1, 12));
  EXPECT_TRUE(cache.try_reserve(2, 12));
  GatherOnlyKv gather_only(cache);
  NoGatherKv no_gather(cache);
  model::KvStore* kv = &cache;
  if (via == Via::kGatherOnly) kv = &gather_only;
  if (via == Via::kNoGather) kv = &no_gather;
  std::vector<float> out;
  auto step = [&](std::vector<model::DecodeSeq> seqs,
                  std::vector<std::int32_t> tokens) {
    const tensor::Tensor logits = stage.decode(seqs, tokens, *kv);
    out.insert(out.end(), logits.data().begin(), logits.data().end());
  };
  step({{1, 0, 5}, {2, 0, 3}}, {3, 1, 4, 1, 5, 9, 2, 6});
  for (std::int32_t i = 0; i < 4; ++i) {
    step({{1, 5 + i, 1}, {2, 3 + i, 1}}, {i, 7 + i});
  }
  if (gathers != nullptr) *gathers = gather_only.gathers;
  return out;
}

TEST(PagedKvCache, GatherOnlyDecoratorDecodesBitwise) {
  const model::GptConfig c = tiny_model();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, model::StageSpec{true, true, 0, c.num_layers, false});
  const auto bare = decode_through(stage, Via::kBare);
  std::int64_t gathers = 0;
  EXPECT_EQ(decode_through(stage, Via::kGatherOnly, &gathers), bare);
  EXPECT_EQ(gathers, 5 * 2 * c.num_layers);  // steps × sequences × layers
}

TEST(PagedKvCache, DecodeNeverCallsGather) {
  const model::GptConfig c = tiny_model();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, model::StageSpec{true, true, 0, c.num_layers, false});
  const auto bare = decode_through(stage, Via::kBare);
  std::vector<float> wrapped;
  EXPECT_NO_THROW(wrapped = decode_through(stage, Via::kNoGather));
  EXPECT_EQ(bare, wrapped);
}

TEST(PagedKvCache, ReserveFailureAllocatesNothing) {
  PagedKvCache kv(tiny_kv(/*capacity=*/3));
  ASSERT_TRUE(kv.try_reserve(1, 8));  // 2 blocks
  EXPECT_FALSE(kv.try_reserve(2, 9));  // needs 3, only 1 free
  EXPECT_EQ(kv.seq_blocks(2), 0);      // failure must not partially allocate
  EXPECT_EQ(kv.free_blocks(), 1);
  ASSERT_TRUE(kv.try_reserve(2, 4));   // 1 block still fits
  EXPECT_EQ(kv.free_blocks(), 0);
}

TEST(PagedKvCache, WriteOutsideReservationThrows) {
  PagedKvCache kv(tiny_kv());
  tensor::Tensor k({1, 6}), v({1, 6});
  EXPECT_THROW(kv.write(5, 0, 0, k, v), CheckError);  // never reserved
  ASSERT_TRUE(kv.try_reserve(5, 4));
  EXPECT_THROW(kv.write(5, 0, 4, k, v), CheckError);  // past the table
}

TEST(PagedKvCache, ZeroSteadyStatePoolGrowth) {
  // Serving forever must not grow the pool: after the first wave of
  // requests, every block the cache hands out is a reused one.
  PagedKvCache kv(tiny_kv(/*capacity=*/6));
  tensor::Tensor k({4, 6}), v({4, 6});
  for (auto& x : k.data()) x = 1.0f;
  for (auto& x : v.data()) x = 2.0f;

  auto one_request = [&](std::uint64_t id) {
    ASSERT_TRUE(kv.try_reserve(id, 8));
    for (std::int64_t layer = 0; layer < 2; ++layer) {
      kv.write(id, layer, 0, k, v);
      kv.write(id, layer, 4, k, v);
    }
    kv.drop(id);
  };

  for (std::uint64_t id = 0; id < 3; ++id) one_request(id);  // warm-up
  const std::int64_t acquires_after_warmup = kv.allocator().pool_acquires();
  for (std::uint64_t id = 3; id < 100; ++id) one_request(id);
  EXPECT_EQ(kv.allocator().pool_acquires(), acquires_after_warmup);
  EXPECT_EQ(kv.allocator().live_blocks(), 0);
  EXPECT_EQ(kv.total_table_blocks(), 0);
}

}  // namespace
}  // namespace ptdp::serve
