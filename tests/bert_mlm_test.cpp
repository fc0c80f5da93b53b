// BERT-path tests: bidirectional attention through the fused general-mask
// kernel (the §4.2 "general masking" custom kernel), the MLM objective's
// per-token loss weights, and full tensor/pipeline-parallel equivalence of
// the bidirectional model — the same invariants the GPT path satisfies.

#include <gtest/gtest.h>

#include "layer_reference.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {
namespace {

GptConfig bert_config() {
  GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.causal = false;  // bidirectional (BERT-style)
  c.seed = 71;
  return c;
}

Microbatch mlm_microbatch(const GptConfig& c, std::int64_t b, std::uint64_t tag) {
  Microbatch mb;
  mb.s = c.seq;
  mb.b = b;
  mb.tag = tag;
  Rng rng(c.seed, substream(31, tag));
  mb.tokens.resize(static_cast<std::size_t>(mb.s * b));
  for (auto& t : mb.tokens) {
    t = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint64_t>(c.vocab - 1)));  // reserve the mask token
  }
  data::apply_mlm_masking(mb, c.vocab, {}, /*seed=*/c.seed);
  return mb;
}

TEST(BidirectionalAttention, SeesFutureTokens) {
  // In a causal model, changing a future token cannot affect an earlier
  // position's activation; in the bidirectional model it must.
  GptConfig causal = bert_config();
  causal.causal = true;
  GptConfig bidir = bert_config();

  for (const GptConfig* cfg : {&causal, &bidir}) {
    dist::Comm solo = dist::Comm::solo();
    ParallelAttention attn(*cfg, 0, solo);
    const auto bind = reference::bind_attention(attn, *cfg, 0);
    Rng rng(1);
    tensor::Tensor x = tensor::Tensor::randn({cfg->seq, 1, cfg->hidden}, rng);
    reference::AttentionCache cache1, cache2;
    tensor::Tensor y1 = reference::attention_forward(bind, x, cache1, 1);
    // Perturb the last position's input.
    tensor::Tensor x2 = x.clone();
    x2.at({cfg->seq - 1, 0, 0}) += 1.0f;
    tensor::Tensor y2 = reference::attention_forward(bind, x2, cache2, 1);
    // Compare position 0's output.
    float diff = 0.0f;
    for (std::int64_t j = 0; j < cfg->hidden; ++j) {
      diff = std::max(diff, std::abs(y1.at({0, 0, j}) - y2.at({0, 0, j})));
    }
    if (cfg->causal) {
      EXPECT_EQ(diff, 0.0f) << "causal attention leaked the future";
    } else {
      EXPECT_GT(diff, 0.0f) << "bidirectional attention ignored the future";
    }
  }
}

TEST(BidirectionalAttention, TensorParallelMatchesSerial) {
  GptConfig c = bert_config();
  Rng rng(3);
  tensor::Tensor x = tensor::Tensor::randn({c.seq, 2, c.hidden}, rng);
  tensor::Tensor dy = tensor::Tensor::randn({c.seq, 2, c.hidden}, rng);
  dist::Comm solo = dist::Comm::solo();
  ParallelAttention ref(c, 0, solo);
  const auto ref_bind = reference::bind_attention(ref, c, 0);
  reference::AttentionCache ref_cache;
  tensor::Tensor ref_y = reference::attention_forward(ref_bind, x, ref_cache, 1);
  tensor::Tensor ref_dx = reference::attention_backward(ref_bind, dy, ref_cache);

  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    ParallelAttention attn(c, 0, comm);
    const auto bind = reference::bind_attention(attn, c, 0);
    reference::AttentionCache cache;
    EXPECT_TRUE(tensor::allclose(reference::attention_forward(bind, x, cache, 1),
                                 ref_y, 1e-4f, 1e-5f));
    EXPECT_TRUE(tensor::allclose(reference::attention_backward(bind, dy, cache),
                                 ref_dx, 1e-4f, 1e-5f));
  });
}

TEST(MlmMasking, SelectsAndCorruptsDeterministically) {
  GptConfig c = bert_config();
  Microbatch a = mlm_microbatch(c, 2, 5);
  Microbatch b = mlm_microbatch(c, 2, 5);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.loss_weights, b.loss_weights);
  // Different tags give different corruption.
  Microbatch other = mlm_microbatch(c, 2, 6);
  EXPECT_NE(a.loss_weights, other.loss_weights);

  // Weighted positions exist and all corrupted positions are weighted.
  float wsum = 0;
  for (std::size_t i = 0; i < a.tokens.size(); ++i) {
    wsum += a.loss_weights[i];
    if (a.tokens[i] != a.targets[i]) {
      EXPECT_EQ(a.loss_weights[i], 1.0f) << "corrupted but unweighted at " << i;
    }
  }
  EXPECT_GT(wsum, 0.0f);
}

TEST(MlmMasking, MaskRateApproximatesRequested) {
  GptConfig c = bert_config();
  c.seq = 64;
  Microbatch mb;
  mb.s = c.seq;
  mb.b = 16;
  mb.tag = 1;
  mb.tokens.assign(static_cast<std::size_t>(mb.s * mb.b), 3);
  data::apply_mlm_masking(mb, c.vocab, {.mask_prob = 0.15f}, 9);
  float rate = 0;
  for (float w : mb.loss_weights) rate += w;
  rate /= static_cast<float>(mb.loss_weights.size());
  EXPECT_NEAR(rate, 0.15f, 0.03f);
}

TEST(MlmLoss, OnlyWeightedPositionsContribute) {
  // Changing an unweighted target must not change the loss; changing a
  // weighted one must.
  GptConfig c = bert_config();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, StageSpec{true, true, 0, c.num_layers, false});
  Microbatch mb = mlm_microbatch(c, 2, 7);

  StageCache cache0;
  const float base = stage.forward(tensor::Tensor(), mb, cache0).loss;

  std::size_t weighted = 0, unweighted = 0;
  for (std::size_t i = 0; i < mb.loss_weights.size(); ++i) {
    if (mb.loss_weights[i] > 0) weighted = i;
    if (mb.loss_weights[i] == 0) unweighted = i;
  }
  Microbatch mb_unw = mb;
  mb_unw.targets[unweighted] = (mb.targets[unweighted] + 1) % c.vocab;
  StageCache cache1;
  EXPECT_FLOAT_EQ(stage.forward(tensor::Tensor(), mb_unw, cache1).loss, base);

  Microbatch mb_w = mb;
  mb_w.targets[weighted] =
      static_cast<std::int32_t>((mb.targets[weighted] + 1) % c.vocab);
  StageCache cache2;
  EXPECT_NE(stage.forward(tensor::Tensor(), mb_w, cache2).loss, base);
}

TEST(MlmLoss, GradientMatchesFiniteDifference) {
  GptConfig c = bert_config();
  c.num_layers = 1;
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, StageSpec{true, true, 0, 1, false});
  Microbatch mb = mlm_microbatch(c, 1, 9);
  stage.zero_grads();
  StageCache cache;
  (void)stage.forward(tensor::Tensor(), mb, cache);
  stage.backward(tensor::Tensor(), 1.0f, cache, mb);

  // Check a few entries of the word embedding grad.
  Param* word = stage.word_embedding_param();
  ASSERT_NE(word, nullptr);
  const float eps = 1e-2f;
  Rng pick(4);
  for (int k = 0; k < 5; ++k) {
    const std::size_t i = static_cast<std::size_t>(
        pick.next_below(static_cast<std::uint64_t>(word->value.numel())));
    const float orig = word->value.data()[i];
    StageCache tmp1, tmp2;
    word->value.data()[i] = orig + eps;
    const float lp = stage.forward(tensor::Tensor(), mb, tmp1).loss;
    word->value.data()[i] = orig - eps;
    const float lm = stage.forward(tensor::Tensor(), mb, tmp2).loss;
    word->value.data()[i] = orig;
    EXPECT_NEAR(word->grad.data()[i], (lp - lm) / (2 * eps), 5e-2f) << i;
  }
}

TEST(BertEndToEnd, PipelineParallelMlmMatchesSerial) {
  GptConfig c = bert_config();
  std::vector<Microbatch> mbs{mlm_microbatch(c, 1, 1), mlm_microbatch(c, 1, 2),
                              mlm_microbatch(c, 1, 3), mlm_microbatch(c, 1, 4)};

  // Serial reference loss trajectory (2 steps of SGD on the same batch).
  auto run = [&](int p, int t) {
    float final_loss = 0;
    std::mutex mu;
    dist::World world(p * t);
    world.run([&](dist::Comm& comm) {
      core::EngineOptions options;
      options.model = c;
      options.parallel.p = p;
      options.parallel.t = t;
      options.parallel.b = 1;
      options.parallel.recompute = p > 1;  // exercise recompute on the grid
      options.global_batch = 4;
      options.sgd.lr = 0.1f;
      core::PtdpEngine engine(comm, options);
      float loss = 0;
      for (int s = 0; s < 2; ++s) loss = engine.train_step(mbs);
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        final_loss = loss;
      }
    });
    return final_loss;
  };
  const float serial = run(1, 1);
  const float grid = run(2, 2);
  EXPECT_NEAR(grid, serial, 2e-3f);
}

TEST(BertEndToEnd, LearnsToUnmaskWithBidirectionalContext) {
  // Data where token i is fully determined by its neighbors: a constant
  // sequence per sample. A bidirectional model should drive the MLM loss
  // far below ln(V); this is the objective BERT's kernel exists for.
  GptConfig c = bert_config();
  c.num_layers = 2;
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, StageSpec{true, true, 0, c.num_layers, false});
  optim::Adam adam(stage.params(), {.lr = 5e-3f});

  Rng rng(2);
  float loss = 0;
  float first_loss = 0;
  for (int step = 0; step < 200; ++step) {
    Microbatch mb;
    mb.s = c.seq;
    mb.b = 4;
    mb.tag = static_cast<std::uint64_t>(step + 1);
    mb.tokens.resize(static_cast<std::size_t>(mb.s * mb.b));
    for (std::int64_t ib = 0; ib < mb.b; ++ib) {
      const auto tok = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(c.vocab - 1)));
      for (std::int64_t is = 0; is < mb.s; ++is) {
        mb.tokens[static_cast<std::size_t>(is * mb.b + ib)] = tok;
      }
    }
    data::apply_mlm_masking(mb, c.vocab, {.mask_prob = 0.25f}, c.seed);
    stage.zero_grads();
    StageCache cache;
    loss = stage.forward(tensor::Tensor(), mb, cache).loss;
    if (step == 0) first_loss = loss;
    stage.backward(tensor::Tensor(), 1.0f, cache, mb);
    adam.step();
  }
  // Chance level is ln(32) ≈ 3.47; require a large, unambiguous drop (the
  // tiny 16-dim model keeps grinding down with more steps).
  EXPECT_NEAR(first_loss, 3.47f, 0.7f);
  EXPECT_LT(loss, first_loss - 1.2f);
}

}  // namespace
}  // namespace ptdp::model
