// ptdp::quant tests (DESIGN.md §17):
//   1. Pack/unpack round-trip error stays within the per-group bound
//      (max - min) / levels for every group size, including tail panels
//      (n not a multiple of kQuantPanel), degenerate constant groups, and
//      the lossless group_size = 1 case.
//   2. quant::matmul is bitwise tensor::matmul(a, dequantize(w)) and
//      deterministic across thread counts, and a quantized stage decodes
//      bitwise like an f32 stage holding the dequantized weights.
//   3. The shard-alignment rule: dequantize(quantize(shard)) is bitwise the
//      matching slice of dequantize(quantize(full)) for row shards whose
//      group divides the shard and for column slices, so t = 1 and t = 2
//      serve the same weights.
//   4. Dtype-tagged checkpoints on the shared commit protocol: round-trip
//      bitwise (solo and at tp = 2, each rank its own shard), wrong-kind
//      load is rejected.
//   5. Quantized linears are forward-only, quantize_for_serving quantizes
//      every linear and releases the masters, a quantized serving engine
//      has zero steady-state pool growth, and 2-way tensor-parallel
//      quantized decode matches the serial quantized engine token-for-token.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ptdp/ckpt/manifest.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/quant/quant.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/serve/loadgen.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::quant {
namespace {

using tensor::QuantKind;
using tensor::Tensor;

// Restores the ambient intra-op thread count on scope exit.
struct ThreadGuard {
  std::size_t saved = runtime::intra_op_threads();
  ~ThreadGuard() { runtime::set_intra_op_threads(saved); }
};

Tensor random_weight(std::int64_t k, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn({k, n}, rng);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto da = a.data();
  const auto db = b.data();
  if (da.size() != db.size()) return false;
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (std::memcmp(&da[i], &db[i], sizeof(float)) != 0) return false;
  }
  return true;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  const auto ra = a.raw_bytes();
  const auto rb = b.raw_bytes();
  return ra.size() == rb.size() &&
         std::memcmp(ra.data(), rb.data(), ra.size()) == 0;
}

bool quant_bitwise_equal(const QuantizedWeight& a, const QuantizedWeight& b) {
  return a.kind == b.kind && a.rows == b.rows && a.cols == b.cols &&
         a.group_size == b.group_size && bytes_equal(a.payload, b.payload) &&
         bytes_equal(a.scales, b.scales) && bytes_equal(a.zeros, b.zeros);
}

// Rows [r0, r1) and columns [c0, c1) of a row-major [k, n] tensor.
Tensor slice(const Tensor& w, std::int64_t r0, std::int64_t r1, std::int64_t c0,
             std::int64_t c1) {
  const std::int64_t n = w.dim(1);
  const auto dw = w.data();
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>((r1 - r0) * (c1 - c0)));
  for (std::int64_t i = r0; i < r1; ++i) {
    out.insert(out.end(), dw.begin() + i * n + c0, dw.begin() + i * n + c1);
  }
  return Tensor::from_vector({r1 - r0, c1 - c0}, out);
}

// ---- 1. round-trip error bounds --------------------------------------------

TEST(QuantRoundTrip, ErrorWithinPerGroupBound) {
  // n = 40 is 2 full panels + an 8-column tail panel.
  const Tensor w = random_weight(128, 40, 3);
  const auto dw = w.data();
  for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
    for (const std::int64_t group : {16LL, 32LL, 128LL}) {
      SCOPED_TRACE(std::string(tensor::quant_kind_name(kind)) + " group " +
                   std::to_string(group));
      const QuantizedWeight q = quantize(w, kind, group);
      const Tensor deq = dequantize(q);
      const auto dd = deq.data();
      const double levels =
          static_cast<double>(tensor::quant_levels(kind));
      for (std::int64_t j = 0; j < 40; ++j) {
        for (std::int64_t g0 = 0; g0 < 128; g0 += group) {
          float mn = dw[static_cast<std::size_t>(g0 * 40 + j)];
          float mx = mn;
          for (std::int64_t i = g0; i < g0 + group; ++i) {
            const float v = dw[static_cast<std::size_t>(i * 40 + j)];
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
          const double bound = static_cast<double>(mx - mn) / levels + 1e-6;
          for (std::int64_t i = g0; i < g0 + group; ++i) {
            const std::size_t at = static_cast<std::size_t>(i * 40 + j);
            ASSERT_NEAR(dd[at], dw[at], bound) << "row " << i << " col " << j;
          }
        }
      }
    }
  }
}

TEST(QuantRoundTrip, GroupOneIsLossless) {
  const Tensor w = random_weight(32, 24, 5);
  for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
    const QuantizedWeight q = quantize(w, kind, 1);
    EXPECT_TRUE(bitwise_equal(dequantize(q), w))
        << tensor::quant_kind_name(kind);
  }
}

TEST(QuantRoundTrip, DegenerateGroupsAreExact) {
  // Constant columns (including all-zero) round-trip exactly at any group.
  std::vector<float> data(static_cast<std::size_t>(64 * 20));
  for (std::int64_t i = 0; i < 64; ++i) {
    for (std::int64_t j = 0; j < 20; ++j) {
      data[static_cast<std::size_t>(i * 20 + j)] =
          j == 0 ? 0.0f : static_cast<float>(j) * 0.25f;
    }
  }
  const Tensor w = Tensor::from_vector({64, 20}, data);
  for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
    const QuantizedWeight q = quantize(w, kind, 16);
    EXPECT_TRUE(bitwise_equal(dequantize(q), w))
        << tensor::quant_kind_name(kind);
  }
}

TEST(QuantRoundTrip, EffectiveGroupSizeIsLargestDivisor) {
  EXPECT_EQ(effective_group_size(64, 128), 64);
  EXPECT_EQ(effective_group_size(64, 48), 48);
  EXPECT_EQ(effective_group_size(7, 128), 4);
  EXPECT_EQ(effective_group_size(1, 9), 1);
}

// ---- 2. quantized GEMM -----------------------------------------------------

TEST(QuantMatmul, MatchesDequantizedReference) {
  // Bitwise, not within a tolerance: the quantized GEMM is the f32 driver
  // reading ŵ. k = 300 crosses the driver's 256-deep k panel, and its
  // effective group of 30 ends inside that panel.
  Rng rng(11);
  for (const std::int64_t k : {96, 300}) {
    const Tensor a = Tensor::randn({5, k}, rng);
    const Tensor w = random_weight(k, 40, 7);
    for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
      const QuantizedWeight q = quantize(w, kind, 32);
      EXPECT_TRUE(bitwise_equal(matmul(a, q), tensor::matmul(a, dequantize(q))))
          << tensor::quant_kind_name(kind) << " k=" << k;
    }
  }
}

TEST(QuantMatmul, BitwiseAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(13);
  const Tensor a = Tensor::randn({3, 128}, rng);
  const Tensor w = random_weight(128, 80, 17);
  for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
    const QuantizedWeight q = quantize(w, kind, 32);
    runtime::set_intra_op_threads(1);
    const Tensor serial = matmul(a, q);
    for (const std::size_t t : {2u, 4u}) {
      runtime::set_intra_op_threads(t);
      EXPECT_TRUE(bitwise_equal(matmul(a, q), serial))
          << tensor::quant_kind_name(kind) << " at " << t << " threads";
    }
  }
}

// ---- 3. shard-alignment rule ----------------------------------------------

TEST(QuantSharding, ShardRowsMatchesDirectShardQuantization) {
  // Row-parallel t = 2: each rank owns rows [r*64, (r+1)*64). With group 16
  // dividing K/t = 64, the rank's groups are a contiguous sub-range of the
  // full weight's, so the shard dequantizes to exactly the full rows.
  const std::int64_t k = 128, n = 48, group = 16;
  const Tensor w = random_weight(k, n, 19);
  for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
    const Tensor full = dequantize(quantize(w, kind, group));
    for (std::int64_t r = 0; r < 2; ++r) {
      const std::int64_t r0 = r * (k / 2), r1 = (r + 1) * (k / 2);
      const Tensor shard = dequantize(quantize(slice(w, r0, r1, 0, n), kind, group));
      EXPECT_TRUE(bitwise_equal(shard, slice(full, r0, r1, 0, n)))
          << tensor::quant_kind_name(kind) << " rank " << r;
    }
  }
}

TEST(QuantSharding, SliceColsMatchesDirectShardQuantization) {
  // Column-parallel t = 2 on panel-aligned halves of n = 64, plus the
  // 8-column tail panel of n = 40.
  struct Cols {
    std::int64_t n, c0, c1;
  };
  const std::int64_t k = 64, group = 16;
  for (const Cols cols : {Cols{64, 0, 32}, Cols{64, 32, 64}, Cols{40, 32, 40}}) {
    const Tensor w = random_weight(k, cols.n, 23);
    for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kQ4}) {
      const Tensor full = dequantize(quantize(w, kind, group));
      const Tensor shard =
          dequantize(quantize(slice(w, 0, k, cols.c0, cols.c1), kind, group));
      EXPECT_TRUE(bitwise_equal(shard, slice(full, 0, k, cols.c0, cols.c1)))
          << tensor::quant_kind_name(kind) << " cols [" << cols.c0 << ", "
          << cols.c1 << ") of " << cols.n;
    }
  }
}

model::GptConfig tiny() {
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

model::StageSpec whole(const model::GptConfig& c) {
  return model::StageSpec{true, true, 0, c.num_layers, false};
}

serve::EngineOptions small_engine(std::int64_t capacity_blocks) {
  serve::EngineOptions eo;
  eo.block_tokens = 4;
  eo.capacity_blocks = capacity_blocks;
  eo.max_batch_tokens = 32;
  eo.prefill_chunk = 4;
  eo.max_running = 16;
  eo.record_metrics = false;
  return eo;
}

constexpr std::int64_t kGroup = 8;  // divides every per-rank K at t in {1, 2}

void quantize_int8(model::GptStage& stage) {
  stage.quantize_for_serving(QuantKind::kInt8, kGroup);
}

// ---- 4. dtype-tagged checkpoints -------------------------------------------

class QuantCkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ptdp_quant_ckpt_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(QuantCkptTest, RoundTripsBitwiseAndRejectsWrongKind) {
  dist::Comm solo = dist::Comm::solo();
  const Tensor w = random_weight(64, 32, 37);
  QuantizedWeight saved = quantize(w, QuantKind::kInt8, 16);
  save_quantized_checkpoint(dir_, 5, solo, {{"blk.qkv", &saved}},
                            QuantKind::kInt8);

  QuantizedWeight loaded = quantize(random_weight(64, 32, 38),
                                    QuantKind::kInt8, 16);
  const auto step =
      load_quantized_checkpoint(dir_, solo, {{"blk.qkv", &loaded}},
                                QuantKind::kInt8);
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(*step, 5u);
  EXPECT_TRUE(quant_bitwise_equal(loaded, saved));

  // The manifest is dtype-tagged: resuming the same directory at q4 must be
  // rejected before any shard opens.
  QuantizedWeight q4 = quantize(w, QuantKind::kQ4, 16);
  EXPECT_THROW(load_quantized_checkpoint(dir_, solo, {{"blk.qkv", &q4}},
                                         QuantKind::kQ4),
               CheckError);
}

TEST_F(QuantCkptTest, TensorParallelCommitLoadsEachRankItsOwnShard) {
  // Save at tp = 2 through the shared commit pair, then load into a freshly
  // quantized stage with different weights: every rank gets its own shard
  // back bitwise and both ranks resolve the same step.
  const model::GptConfig c = tiny();
  model::GptConfig other = c;
  other.seed = c.seed + 1;
  dist::World(2).run([&](dist::Comm& comm) {
    model::GptStage saved(c, comm, whole(c));
    quantize_int8(saved);
    save_quantized_checkpoint(dir_, 7, comm, saved.quantized_weights(),
                              QuantKind::kInt8);
    model::GptStage loaded(other, comm, whole(other));
    quantize_int8(loaded);
    const auto want = saved.quantized_weights();
    const auto got = loaded.quantized_weights();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_FALSE(quant_bitwise_equal(*got[0].weight, *want[0].weight))
        << "the load target must start out different";

    const auto step =
        load_quantized_checkpoint(dir_, comm, got, QuantKind::kInt8);
    ASSERT_TRUE(step.has_value());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].name, want[i].name);
      EXPECT_TRUE(quant_bitwise_equal(*got[i].weight, *want[i].weight))
          << "rank " << comm.rank() << " " << want[i].name;
    }
    const std::uint64_t mine = *step;
    std::vector<std::uint64_t> steps(2);
    comm.all_gather(std::span<const std::uint64_t>(&mine, 1),
                    std::span<std::uint64_t>(steps));
    EXPECT_EQ(steps, (std::vector<std::uint64_t>{7, 7}));
  });
  const auto committed = ckpt::find_latest_valid_checkpoint(dir_, "int8");
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(committed->manifest.shards.size(), 2u);

  // Resolving the int8 checkpoint at q4 fails the whole world.
  try {
    dist::World(2).run([&](dist::Comm& comm) {
      model::GptStage q4(c, comm, whole(c));
      q4.quantize_for_serving(QuantKind::kQ4, kGroup);
      load_quantized_checkpoint(dir_, comm, q4.quantized_weights(),
                                QuantKind::kQ4);
    });
    FAIL() << "a q4 load of an int8 checkpoint must fail";
  } catch (const dist::RankFailure& e) {
    EXPECT_TRUE(e.caused_by<CheckError>()) << e.what();
  }
}

// ---- 5. quantized linears and the serving engine ---------------------------

TEST(QuantLinear, BackwardThroughQuantizedColumnParallelThrows) {
  dist::Comm solo = dist::Comm::solo();
  model::ColumnParallelLinear lin("col", 16, 32, solo, 0.02f, 1);
  lin.quantize_weight(QuantKind::kInt8, kGroup);
  Rng rng(1);
  model::LinearCache cache;
  const Tensor y = lin.forward(Tensor::randn({3, 16}, rng), cache);
  EXPECT_THROW(lin.backward(y, cache), CheckError);
}

TEST(QuantLinear, BackwardThroughQuantizedRowParallelThrows) {
  dist::Comm solo = dist::Comm::solo();
  model::RowParallelLinear lin("row", 32, 16, solo, 0.02f, 1);
  lin.quantize_weight(QuantKind::kQ4, kGroup);
  Rng rng(2);
  model::LinearCache cache;
  const Tensor y = lin.forward(Tensor::randn({3, 32}, rng), cache);
  EXPECT_THROW(lin.backward(y, cache), CheckError);
}

TEST(QuantLinear, QuantizeForServingRefusesDropout) {
  model::GptConfig c = tiny();
  c.dropout = 0.1f;
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  EXPECT_THROW(quantize_int8(stage), CheckError);
  EXPECT_TRUE(stage.quantized_weights().empty());
}

TEST(QuantLinear, QuantizeForServingQuantizesEveryLinearAndReleasesMasters) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  const model::ParamRefs params = stage.params();
  quantize_int8(stage);
  const auto named = stage.quantized_weights();
  ASSERT_EQ(named.size(), static_cast<std::size_t>(4 * c.num_layers));
  for (const NamedQuant& nq : named) {
    bool released = false;
    for (const model::Param* p : params) {
      if (p->name == nq.name) released = !p->value.defined() && !p->grad.defined();
    }
    EXPECT_TRUE(released) << nq.name << " kept its f32 master";
  }
}

TEST(QuantServe, Int8StageDecodesBitwiseLikeF32StageOfDequantizedWeights) {
  // hidden 80: FC2 contracts over k = 320, past the GEMM's 256-deep k
  // panel (tiny()'s hidden 32 never gets there), and group 40 ends inside
  // that panel. The prefill runs m = 6 rows, each decode step m = 1.
  model::GptConfig c = tiny();
  c.hidden = 80;
  dist::Comm solo = dist::Comm::solo();
  model::GptStage quantized(c, solo, whole(c));
  model::GptStage reference(c, solo, whole(c));
  quantized.quantize_for_serving(QuantKind::kInt8, 40);
  const model::ParamRefs params = reference.params();
  int replaced = 0;
  for (const NamedQuant& nq : quantized.quantized_weights()) {
    for (model::Param* p : params) {
      if (p->name != nq.name) continue;
      p->value = dequantize(*nq.weight);
      ++replaced;
    }
  }
  ASSERT_EQ(replaced, 4 * c.num_layers);

  const std::vector<std::int32_t> tokens = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8};
  constexpr std::int64_t kPrefill = 6;
  auto decode_logits = [&](model::GptStage& stage) {
    const auto len = static_cast<std::int64_t>(tokens.size());
    model::PagedKvCache kv({c.num_layers, stage.kv_heads_local() * stage.kv_head_dim(),
                            /*block_tokens=*/4, /*capacity_blocks=*/(len + 3) / 4,
                            false});
    EXPECT_TRUE(kv.try_reserve(0, len));
    std::vector<Tensor> out;
    for (std::int64_t pos = 0; pos < len;) {
      const std::int64_t step = pos == 0 ? kPrefill : 1;
      const model::DecodeSeq seq{0, pos, step};
      out.push_back(stage.decode(
          std::span<const model::DecodeSeq>(&seq, 1),
          std::span<const std::int32_t>(tokens.data() + pos,
                                        static_cast<std::size_t>(step)),
          kv));
      pos += step;
    }
    return out;
  };
  const std::vector<Tensor> got = decode_logits(quantized);
  const std::vector<Tensor> want = decode_logits(reference);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(got[i], want[i]))
        << "decode step " << i << ": max |diff| " << tensor::max_abs_diff(got[i], want[i]);
  }
}

TEST(QuantServe, ZeroSteadyStatePoolGrowth) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  const auto report = stage.quantize_for_serving(QuantKind::kInt8, kGroup);
  EXPECT_EQ(report.linears, 2 * 4);
  EXPECT_LT(report.weight_bytes * 2, report.weight_bytes_f32);
  serve::ServeEngine engine(stage, small_engine(/*capacity=*/24));

  auto wave = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      serve::Request r;
      r.id = base + i;
      r.prompt = {1, 2, 3, 4};
      r.options.max_new_tokens = 6;
      engine.submit(std::move(r));
    }
    std::int64_t step = 0;
    while (!engine.idle()) {
      ASSERT_LT(step++, 20000);
      engine.step();
    }
  };

  wave(100);  // warm-up: KV blocks and activation buffers enter the pool
  const std::int64_t acquires = engine.kv().allocator().pool_acquires();
  for (std::uint64_t w = 1; w <= 10; ++w) wave(1000 * w);
  EXPECT_EQ(engine.kv().allocator().pool_acquires(), acquires)
      << "steady-state quantized serving grew the pool";
  EXPECT_EQ(engine.kv().allocator().live_blocks(), 0);
}

TEST(QuantServe, TensorParallelQuantizedMatchesSerialQuantized) {
  const model::GptConfig c = tiny();
  const std::uint64_t seed = 9;
  serve::LoadGenOptions lo;
  lo.users = 6;
  lo.requests_per_user = 2;
  lo.prompt_min = 2;
  lo.prompt_max = 8;
  lo.max_new_min = 3;
  lo.max_new_max = 8;
  lo.think_steps_max = 2;
  lo.window = c.seq;
  lo.vocab = c.vocab;
  lo.seed = seed;

  auto drive = [](serve::ServeEngine& engine, serve::LoadGen& lg) {
    std::map<std::uint64_t, std::vector<std::int32_t>> out;
    std::int64_t step = 0;
    while (!lg.done()) {
      EXPECT_LT(step, 20000);
      lg.tick(step, engine);
      const auto done = engine.step();
      lg.on_finished(done, step);
      ++step;
    }
    for (const auto& fin : lg.finished()) out[fin.id] = fin.tokens;
    return out;
  };

  dist::Comm solo = dist::Comm::solo();
  model::GptStage serial(c, solo, whole(c));
  quantize_int8(serial);
  serve::ServeEngine ref_engine(serial, small_engine(/*capacity=*/16));
  serve::LoadGen ref_lg(lo);
  const auto expected = drive(ref_engine, ref_lg);
  ASSERT_EQ(expected.size(), 12u);

  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    model::GptStage stage(c, comm, whole(c));
    quantize_int8(stage);
    serve::ServeEngine engine(stage, small_engine(/*capacity=*/16));
    serve::LoadGen lg(lo);
    const auto got = drive(engine, lg);
    ASSERT_EQ(got.size(), expected.size());
    for (const auto& [id, tokens] : expected) {
      EXPECT_EQ(got.at(id), tokens) << "rank " << comm.rank() << " request "
                                    << id;
    }
  });
}

}  // namespace
}  // namespace ptdp::quant
