// Model-layer tests. The central claims verified here:
//   1. Every tensor-parallel layer computes exactly what its serial (t=1)
//      counterpart computes — forward activations, input grads, and the
//      correct shard of the parameter grads (Fig. 5 semantics).
//   2. The full GptStage loss gradient matches finite differences.
//   3. Activation recomputation replays dropout masks bit-for-bit.

#include <gtest/gtest.h>

#include <vector>

#include "layer_reference.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/model/stage.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {
namespace {

using tensor::Tensor;

GptConfig tiny_config() {
  GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.0f;
  c.seed = 99;
  return c;
}

Microbatch make_microbatch(const GptConfig& c, std::int64_t b, std::uint64_t tag) {
  Microbatch mb;
  mb.s = c.seq;
  mb.b = b;
  mb.tag = tag;
  Rng rng(c.seed, substream(777, tag));
  mb.tokens.resize(static_cast<std::size_t>(mb.s * b));
  mb.targets.resize(static_cast<std::size_t>(mb.s * b));
  for (auto& t : mb.tokens) t = static_cast<std::int32_t>(rng.next_below(
      static_cast<std::uint64_t>(c.vocab)));
  for (auto& t : mb.targets) t = static_cast<std::int32_t>(rng.next_below(
      static_cast<std::uint64_t>(c.vocab)));
  return mb;
}

StageSpec full_spec(const GptConfig& c, bool recompute = false) {
  return StageSpec{/*has_embedding=*/true, /*has_head=*/true, 0, c.num_layers,
                   recompute};
}

// Runs one forward+backward of the full model serially; returns loss and a
// named copy of every parameter grad.
struct SerialResult {
  float loss;
  std::vector<std::pair<std::string, Tensor>> grads;
};

SerialResult run_serial(const GptConfig& c, const Microbatch& mb,
                        bool recompute = false) {
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, full_spec(c, recompute));
  stage.zero_grads();
  StageCache cache;
  StageForward fwd = stage.forward(Tensor(), mb, cache);
  stage.backward(Tensor(), /*loss_scale=*/1.0f, cache, mb);
  SerialResult res;
  res.loss = fwd.loss;
  for (Param* p : stage.params()) {
    res.grads.emplace_back(p->name, p->grad.clone());
  }
  return res;
}

const Tensor* find_grad(const SerialResult& r, const std::string& name) {
  for (const auto& [n, g] : r.grads) {
    if (n == name) return &g;
  }
  return nullptr;
}

// ---- linear layers vs serial ----------------------------------------------------

class TensorParallelLinearTest : public ::testing::TestWithParam<int> {};

TEST_P(TensorParallelLinearTest, ColumnParallelMatchesSerial) {
  const int t = GetParam();
  const std::int64_t in = 12, out = 8, n = 5;
  Rng xrng(3);
  Tensor x = Tensor::randn({n, in}, xrng);
  Tensor dy = Tensor::randn({n, out}, xrng);

  // Serial reference.
  dist::Comm solo = dist::Comm::solo();
  ColumnParallelLinear ref("col", in, out, solo, 0.02f, 42);
  LinearCache ref_cache;
  Tensor ref_y = ref.forward(x, ref_cache);
  Tensor ref_dx = ref.backward(dy, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    ColumnParallelLinear lin("col", in, out, comm, 0.02f, 42);
    LinearCache cache;
    Tensor y = lin.forward(x, cache);
    const std::int64_t shard = out / t;
    // Local output equals the serial output's column slice.
    EXPECT_TRUE(tensor::allclose(y, ref_y.slice(1, comm.rank() * shard, shard), 1e-4f,
                                 1e-5f));
    Tensor dx = lin.backward(dy.slice(1, comm.rank() * shard, shard), cache);
    EXPECT_TRUE(tensor::allclose(dx, ref_dx, 1e-4f, 1e-5f));
    // Weight grad shard equals the serial grad's column slice.
    EXPECT_TRUE(tensor::allclose(lin.weight().grad,
                                 ref.weight().grad.slice(1, comm.rank() * shard, shard),
                                 1e-4f, 1e-5f));
    EXPECT_TRUE(tensor::allclose(lin.bias().grad,
                                 ref.bias().grad.slice(0, comm.rank() * shard, shard),
                                 1e-4f, 1e-5f));
  });
}

TEST_P(TensorParallelLinearTest, RowParallelMatchesSerial) {
  const int t = GetParam();
  const std::int64_t in = 12, out = 8, n = 5;
  Rng xrng(4);
  Tensor x = Tensor::randn({n, in}, xrng);
  Tensor dy = Tensor::randn({n, out}, xrng);

  dist::Comm solo = dist::Comm::solo();
  RowParallelLinear ref("row", in, out, solo, 0.02f, 42);
  LinearCache ref_cache;
  Tensor ref_y = ref.forward(x, ref_cache);
  Tensor ref_dx = ref.backward(dy, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    RowParallelLinear lin("row", in, out, comm, 0.02f, 42);
    LinearCache cache;
    const std::int64_t shard = in / t;
    Tensor x_local = x.slice(1, comm.rank() * shard, shard);
    Tensor y = lin.forward(x_local, cache);
    EXPECT_TRUE(tensor::allclose(y, ref_y, 1e-4f, 1e-5f));
    Tensor dx = lin.backward(dy, cache);
    EXPECT_TRUE(tensor::allclose(dx, ref_dx.slice(1, comm.rank() * shard, shard), 1e-4f,
                                 1e-5f));
    EXPECT_TRUE(tensor::allclose(lin.weight().grad,
                                 ref.weight().grad.slice(0, comm.rank() * shard, shard),
                                 1e-4f, 1e-5f));
    // Replicated bias grad is identical everywhere.
    EXPECT_TRUE(tensor::allclose(lin.bias().grad, ref.bias().grad, 1e-4f, 1e-5f));
    EXPECT_TRUE(lin.bias().replicated_across_tensor_parallel);
  });
}

INSTANTIATE_TEST_SUITE_P(TensorSizes, TensorParallelLinearTest,
                         ::testing::Values(1, 2, 4));

// ---- attention / MLP / layer vs serial ------------------------------------------

class TensorParallelBlockTest : public ::testing::TestWithParam<int> {};

TEST_P(TensorParallelBlockTest, AttentionMatchesSerial) {
  const int t = GetParam();
  GptConfig c = tiny_config();
  Rng xrng(5);
  Tensor x = Tensor::randn({c.seq, 3, c.hidden}, xrng);
  Tensor dy = Tensor::randn({c.seq, 3, c.hidden}, xrng);

  dist::Comm solo = dist::Comm::solo();
  ParallelAttention ref(c, 0, solo);
  const auto ref_bind = reference::bind_attention(ref, c, 0);
  reference::AttentionCache ref_cache;
  Tensor ref_y = reference::attention_forward(ref_bind, x, ref_cache, /*mb_tag=*/1);
  Tensor ref_dx = reference::attention_backward(ref_bind, dy, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    ParallelAttention attn(c, 0, comm);
    const auto bind = reference::bind_attention(attn, c, 0);
    reference::AttentionCache cache;
    Tensor y = reference::attention_forward(bind, x, cache, /*mb_tag=*/1);
    EXPECT_TRUE(tensor::allclose(y, ref_y, 1e-4f, 1e-5f));
    Tensor dx = reference::attention_backward(bind, dy, cache);
    EXPECT_TRUE(tensor::allclose(dx, ref_dx, 1e-4f, 1e-5f));
  });
}

TEST_P(TensorParallelBlockTest, MlpMatchesSerial) {
  const int t = GetParam();
  GptConfig c = tiny_config();
  Rng xrng(6);
  Tensor x = Tensor::randn({c.seq, 3, c.hidden}, xrng);
  Tensor dy = Tensor::randn({c.seq, 3, c.hidden}, xrng);

  dist::Comm solo = dist::Comm::solo();
  ParallelMlp ref(c, 1, solo);
  const auto ref_bind = reference::bind_mlp(ref, c, 1);
  reference::MlpCache ref_cache;
  Tensor ref_y = reference::mlp_forward(ref_bind, x, ref_cache);
  Tensor ref_dx = reference::mlp_backward(ref_bind, dy, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    ParallelMlp mlp(c, 1, comm);
    const auto bind = reference::bind_mlp(mlp, c, 1);
    reference::MlpCache cache;
    EXPECT_TRUE(tensor::allclose(reference::mlp_forward(bind, x, cache), ref_y,
                                 1e-4f, 1e-5f));
    EXPECT_TRUE(tensor::allclose(reference::mlp_backward(bind, dy, cache), ref_dx,
                                 1e-4f, 1e-5f));
  });
}

TEST_P(TensorParallelBlockTest, TransformerLayerMatchesSerialWithDropout) {
  const int t = GetParam();
  GptConfig c = tiny_config();
  c.dropout = 0.1f;  // dropout masks are keyed by global head — must agree
  Rng xrng(7);
  Tensor x = Tensor::randn({c.seq, 2, c.hidden}, xrng);
  Tensor dy = Tensor::randn({c.seq, 2, c.hidden}, xrng);

  dist::Comm solo = dist::Comm::solo();
  TransformerLayer ref(c, 0, solo);
  LayerCache ref_cache;
  Tensor ref_y = ref.forward(x, ref_cache, /*mb_tag=*/9);
  Tensor ref_dx = ref.backward(dy, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    TransformerLayer layer(c, 0, comm);
    LayerCache cache;
    Tensor y = layer.forward(x, cache, /*mb_tag=*/9);
    EXPECT_TRUE(tensor::allclose(y, ref_y, 1e-4f, 1e-5f));
    Tensor dx = layer.backward(dy, cache);
    EXPECT_TRUE(tensor::allclose(dx, ref_dx, 1e-4f, 1e-5f));
  });
}

TEST_P(TensorParallelBlockTest, EmbeddingMatchesSerial) {
  const int t = GetParam();
  GptConfig c = tiny_config();
  Microbatch mb = make_microbatch(c, 3, /*tag=*/2);
  Rng drng(8);
  Tensor dy = Tensor::randn({c.seq, 3, c.hidden}, drng);

  dist::Comm solo = dist::Comm::solo();
  VocabParallelEmbedding ref(c, solo);
  EmbeddingCache ref_cache;
  Tensor ref_y = ref.forward(mb.tokens, mb.s, mb.b, ref_cache, mb.tag);
  ref.backward(dy, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    VocabParallelEmbedding emb(c, comm);
    EmbeddingCache cache;
    Tensor y = emb.forward(mb.tokens, mb.s, mb.b, cache, mb.tag);
    EXPECT_TRUE(tensor::allclose(y, ref_y, 1e-4f, 1e-5f));
    emb.backward(dy, cache);
    const std::int64_t shard = c.vocab / t;
    EXPECT_TRUE(tensor::allclose(emb.word().grad,
                                 ref.word().grad.slice(0, comm.rank() * shard, shard),
                                 1e-4f, 1e-5f));
    EXPECT_TRUE(tensor::allclose(emb.position().grad, ref.position().grad, 1e-4f,
                                 1e-5f));
  });
}

TEST_P(TensorParallelBlockTest, HeadLossAndGradsMatchSerial) {
  const int t = GetParam();
  GptConfig c = tiny_config();
  Microbatch mb = make_microbatch(c, 2, /*tag=*/3);
  Rng xrng(9);
  Tensor x = Tensor::randn({c.seq, 2, c.hidden}, xrng);

  dist::Comm solo = dist::Comm::solo();
  GptHead ref(c, solo, nullptr);
  HeadCache ref_cache;
  const float ref_loss = ref.forward(x, mb.targets, ref_cache);
  Tensor ref_dx = ref.backward(1.0f, ref_cache);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    GptHead head(c, comm, nullptr);
    HeadCache cache;
    const float loss = head.forward(x, mb.targets, cache);
    EXPECT_NEAR(loss, ref_loss, 1e-4f);
    Tensor dx = head.backward(1.0f, cache);
    EXPECT_TRUE(tensor::allclose(dx, ref_dx, 1e-4f, 1e-5f));
    const std::int64_t shard = c.vocab / t;
    EXPECT_TRUE(tensor::allclose(head.word().grad,
                                 ref.word().grad.slice(0, comm.rank() * shard, shard),
                                 1e-4f, 1e-5f));
  });
}

TEST_P(TensorParallelBlockTest, FullStageLossMatchesSerial) {
  const int t = GetParam();
  GptConfig c = tiny_config();
  Microbatch mb = make_microbatch(c, 2, /*tag=*/4);
  SerialResult ref = run_serial(c, mb);

  dist::World world(t);
  world.run([&](dist::Comm& comm) {
    GptStage stage(c, comm, full_spec(c));
    stage.zero_grads();
    StageCache cache;
    StageForward fwd = stage.forward(Tensor(), mb, cache);
    EXPECT_NEAR(fwd.loss, ref.loss, 1e-4f);
    stage.backward(Tensor(), 1.0f, cache, mb);
    // Replicated params have identical grads to serial.
    for (Param* p : stage.params()) {
      if (p->replicated_across_tensor_parallel) {
        const Tensor* g = find_grad(ref, p->name);
        ASSERT_NE(g, nullptr) << p->name;
        EXPECT_TRUE(tensor::allclose(p->grad, *g, 2e-3f, 1e-4f)) << p->name;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(TensorSizes, TensorParallelBlockTest,
                         ::testing::Values(1, 2, 4));

// ---- finite-difference gradient check of the whole model ------------------------

TEST(GptStage, LossGradientMatchesFiniteDifference) {
  GptConfig c = tiny_config();
  c.num_layers = 1;
  Microbatch mb = make_microbatch(c, 2, /*tag=*/5);

  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, full_spec(c));
  stage.zero_grads();
  StageCache cache;
  (void)stage.forward(Tensor(), mb, cache);
  stage.backward(Tensor(), 1.0f, cache, mb);

  auto loss_at = [&](GptStage& s) {
    StageCache tmp;
    return s.forward(Tensor(), mb, tmp).loss;
  };

  // Sample a handful of entries from every parameter.
  const float eps = 1e-2f;
  for (Param* p : stage.params()) {
    Rng pick(1, param_stream(p->name));
    const int samples = 3;
    for (int k = 0; k < samples; ++k) {
      const std::size_t i = static_cast<std::size_t>(
          pick.next_below(static_cast<std::uint64_t>(p->value.numel())));
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const float lp = loss_at(stage);
      p->value.data()[i] = orig - eps;
      const float lm = loss_at(stage);
      p->value.data()[i] = orig;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, 5e-2f)
          << p->name << "[" << i << "]";
    }
  }
}

// ---- recomputation ---------------------------------------------------------------

TEST(GptStage, RecomputeMatchesStashedActivations) {
  GptConfig c = tiny_config();
  c.dropout = 0.15f;  // the hard case: masks must replay exactly
  Microbatch mb = make_microbatch(c, 2, /*tag=*/6);

  SerialResult plain = run_serial(c, mb, /*recompute=*/false);
  SerialResult recomputed = run_serial(c, mb, /*recompute=*/true);

  EXPECT_FLOAT_EQ(plain.loss, recomputed.loss);
  ASSERT_EQ(plain.grads.size(), recomputed.grads.size());
  for (std::size_t i = 0; i < plain.grads.size(); ++i) {
    EXPECT_EQ(plain.grads[i].first, recomputed.grads[i].first);
    EXPECT_EQ(tensor::max_abs_diff(plain.grads[i].second, recomputed.grads[i].second),
              0.0f)
        << plain.grads[i].first;
  }
}

TEST(GptStage, ForwardIsDeterministicPerTag) {
  GptConfig c = tiny_config();
  c.dropout = 0.2f;
  Microbatch mb = make_microbatch(c, 2, /*tag=*/7);
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, full_spec(c));
  StageCache c1, c2;
  const float l1 = stage.forward(Tensor(), mb, c1).loss;
  const float l2 = stage.forward(Tensor(), mb, c2).loss;
  EXPECT_FLOAT_EQ(l1, l2);

  Microbatch mb2 = mb;
  mb2.tag = 8;  // different tag => different dropout masks => different loss
  StageCache c3;
  EXPECT_NE(stage.forward(Tensor(), mb2, c3).loss, l1);
}

// ---- split stages compose to the full model --------------------------------------

TEST(GptStage, TwoStageSplitMatchesFullModel) {
  GptConfig c = tiny_config();
  Microbatch mb = make_microbatch(c, 2, /*tag=*/11);
  SerialResult ref = run_serial(c, mb);

  dist::Comm solo = dist::Comm::solo();
  GptStage first(c, solo, StageSpec{true, false, 0, 1, false});
  GptStage second(c, solo, StageSpec{false, true, 1, 2, false});
  first.zero_grads();
  second.zero_grads();

  StageCache cache1, cache2;
  StageForward f1 = first.forward(Tensor(), mb, cache1);
  StageForward f2 = second.forward(f1.activation, mb, cache2);
  EXPECT_NEAR(f2.loss, ref.loss, 1e-5f);

  Tensor dback = second.backward(Tensor(), 1.0f, cache2, mb);
  ASSERT_TRUE(dback.defined());
  first.backward(dback, 0.0f, cache1, mb);

  // Tied embedding grads live on both stages; their sum is the serial grad.
  Param* w1 = first.word_embedding_param();
  Param* w2 = second.word_embedding_param();
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w2, nullptr);
  Tensor total = tensor::add(w1->grad, w2->grad);
  const Tensor* serial_g = find_grad(ref, "embedding.word");
  ASSERT_NE(serial_g, nullptr);
  EXPECT_TRUE(tensor::allclose(total, *serial_g, 1e-4f, 1e-5f));

  // Per-layer grads match the serial run.
  for (Param* p : first.params()) {
    if (p->name.rfind("layer0.", 0) == 0) {
      const Tensor* g = find_grad(ref, p->name);
      ASSERT_NE(g, nullptr) << p->name;
      EXPECT_TRUE(tensor::allclose(p->grad, *g, 1e-4f, 1e-5f)) << p->name;
    }
  }
  for (Param* p : second.params()) {
    if (p->name.rfind("layer1.", 0) == 0) {
      const Tensor* g = find_grad(ref, p->name);
      ASSERT_NE(g, nullptr) << p->name;
      EXPECT_TRUE(tensor::allclose(p->grad, *g, 1e-4f, 1e-5f)) << p->name;
    }
  }
}

// ---- config arithmetic -----------------------------------------------------------

TEST(GptConfig, ExactParamsTracksPaperFormula) {
  // At paper scale the approximation error of Eq. (2) is far below 1%.
  GptConfig c;
  c.num_layers = 24;
  c.hidden = 2304;
  c.heads = 24;
  c.vocab = 51200;
  c.seq = 2048;
  const double exact = static_cast<double>(c.exact_params());
  const double paper = c.paper_params();
  EXPECT_NEAR(paper / exact, 1.0, 0.01);
  // And the 1.7B row of Table 1 really is ~1.7B parameters.
  EXPECT_NEAR(exact / 1e9, 1.7, 0.1);
}

TEST(GptConfig, ParamStreamsDifferAcrossNames) {
  EXPECT_NE(param_stream("layer0.attn.qkv.weight"),
            param_stream("layer1.attn.qkv.weight"));
}

TEST(GptStage, ParamNamesAreUniqueAndOrdered) {
  GptConfig c = tiny_config();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, full_spec(c));
  auto refs = stage.params();
  std::vector<std::string> names;
  for (Param* p : refs) names.push_back(p->name);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Embedding first, head LN last.
  EXPECT_EQ(names.front(), "embedding.word");
  EXPECT_EQ(names.back(), "final_ln.beta");
}

}  // namespace
}  // namespace ptdp::model
