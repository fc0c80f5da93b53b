// Generation tests: greedy decoding is argmax and deterministic, sampling
// respects temperature and seed, tensor-parallel generation matches serial
// token-for-token, KV-cached decode matches the full forward bit for bit
// (tokens and, past the first 256-deep GEMM k panel, logits), and a model
// trained on the synthetic bigram corpus reproduces the corpus's successor
// rule.

#include <gtest/gtest.h>

#include <algorithm>

#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/model/generate.hpp"
#include "ptdp/optim/optimizer.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {
namespace {

GptConfig tiny(float dropout = 0.0f) {
  GptConfig c;
  c.num_layers = 2;
  c.hidden = 32;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 12;
  c.dropout = dropout;
  c.seed = 41;
  return c;
}

StageSpec whole(const GptConfig& c) {
  return StageSpec{true, true, 0, c.num_layers, false};
}

TEST(Generate, GreedyIsDeterministic) {
  GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  std::vector<std::int32_t> prompt{1, 2, 3};
  GenerateOptions opt;
  opt.max_new_tokens = 8;
  const auto a = generate(stage, prompt, opt);
  const auto b = generate(stage, prompt, opt);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), prompt.size() + 8);
  // Prompt is preserved as prefix.
  for (std::size_t i = 0; i < prompt.size(); ++i) EXPECT_EQ(a[i], prompt[i]);
}

TEST(Generate, GreedyPicksArgmaxOfLogits) {
  GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  std::vector<std::int32_t> prompt{5, 9};
  GenerateOptions opt;
  opt.max_new_tokens = 1;
  const auto out = generate(stage, prompt, opt);
  const tensor::Tensor logits = forward_logits(stage, prompt, 2, 1);
  // Row for the last position.
  std::int32_t best = 0;
  float best_v = -1e30f;
  for (std::int64_t v = 0; v < c.vocab; ++v) {
    const float lv = logits.at({1, v});
    if (lv > best_v) {
      best_v = lv;
      best = static_cast<std::int32_t>(v);
    }
  }
  EXPECT_EQ(out.back(), best);
}

TEST(Generate, SamplingSeedControlsOutput) {
  GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  std::vector<std::int32_t> prompt{1};
  GenerateOptions opt;
  opt.greedy = false;
  opt.temperature = 1.5f;
  opt.max_new_tokens = 16;
  opt.seed = 1;
  const auto a = generate(stage, prompt, opt);
  const auto a2 = generate(stage, prompt, opt);
  EXPECT_EQ(a, a2);  // same seed, same tokens
  opt.seed = 2;
  const auto b = generate(stage, prompt, opt);
  EXPECT_NE(a, b);  // different seed, different trajectory (overwhelmingly)
}

TEST(Generate, ContextWindowTruncatesFromLeft) {
  GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  // Prompt longer than the trained window still generates.
  std::vector<std::int32_t> prompt(30, 3);
  GenerateOptions opt;
  opt.max_new_tokens = 4;
  const auto out = generate(stage, prompt, opt);
  EXPECT_EQ(out.size(), prompt.size() + 4);
}

TEST(Generate, LogitsMatchTrainingLossPath) {
  // Cross-entropy computed from the inference logits must equal the loss
  // the training head reports on the same tokens.
  GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  Microbatch mb;
  mb.s = c.seq;
  mb.b = 2;
  mb.tag = 3;
  Rng rng(1, 2);
  mb.tokens.resize(static_cast<std::size_t>(mb.s * mb.b));
  mb.targets.resize(static_cast<std::size_t>(mb.s * mb.b));
  for (auto& t : mb.tokens) {
    t = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(c.vocab)));
  }
  for (auto& t : mb.targets) {
    t = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(c.vocab)));
  }
  StageCache cache;
  const float train_loss = stage.forward(tensor::Tensor(), mb, cache).loss;
  const tensor::Tensor logits = forward_logits(stage, mb.tokens, mb.s, mb.b);
  const auto ce = tensor::cross_entropy(logits, mb.targets);
  EXPECT_NEAR(ce.loss, train_loss, 1e-4f);
}

TEST(Generate, TensorParallelMatchesSerial) {
  GptConfig c = tiny();
  std::vector<std::int32_t> prompt{2, 7, 11};
  GenerateOptions opt;
  opt.max_new_tokens = 6;

  dist::Comm solo = dist::Comm::solo();
  GptStage serial(c, solo, whole(c));
  const auto expected = generate(serial, prompt, opt);

  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    GptStage stage(c, comm, whole(c));
    const auto got = generate(stage, prompt, opt);
    EXPECT_EQ(got, expected) << "rank " << comm.rank();
  });
}

TEST(Generate, RejectsDropoutAndPartialStages) {
  GptConfig with_dropout = tiny(0.1f);
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(with_dropout, solo, whole(with_dropout));
  std::vector<std::int32_t> prompt{1};
  EXPECT_THROW(generate(stage, prompt, {}), CheckError);

  GptConfig c = tiny();
  GptStage partial(c, solo, StageSpec{true, false, 0, 1, false});
  EXPECT_THROW(forward_logits(partial, prompt, 1, 1), CheckError);
}

TEST(Generate, KvCacheMatchesFullForwardBitwise) {
  // The incremental KV-cached decode must produce bit-identical token
  // streams to the O(n²) full-forward oracle — greedy and sampled.
  GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  std::vector<std::int32_t> prompt{4, 9, 1};
  for (const bool greedy : {true, false}) {
    GenerateOptions opt;
    opt.greedy = greedy;
    opt.temperature = 0.9f;
    opt.top_k = 8;
    opt.seed = 17;
    opt.max_new_tokens = 8;  // stays within the trained window
    opt.use_kv_cache = true;
    const auto cached = generate(stage, prompt, opt);
    opt.use_kv_cache = false;
    const auto full = generate(stage, prompt, opt);
    EXPECT_EQ(cached, full) << (greedy ? "greedy" : "sampled");
  }
}

TEST(Generate, KvCacheMatchesFullForwardPastOneGemmKPanel) {
  // The GEMM driver contracts in 256-deep k panels: the first overwrites,
  // later ones add. A ~250-token prompt decoded 24 tokens past it moves
  // kv_len across 256, so P·V's contraction gains a second panel mid-run
  // and the prefill's m crosses the row-panel height; every token must
  // still match the full-forward oracle bit for bit.
  GptConfig c = tiny();
  c.seq = 320;
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  Rng rng(29);
  std::vector<std::int32_t> prompt(250);
  for (auto& t : prompt) {
    t = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(c.vocab)));
  }
  for (const bool greedy : {true, false}) {
    GenerateOptions opt;
    opt.greedy = greedy;
    opt.temperature = 0.9f;
    opt.top_k = 8;
    opt.seed = 23;
    opt.max_new_tokens = 24;
    opt.use_kv_cache = true;
    const auto cached = generate(stage, prompt, opt);
    opt.use_kv_cache = false;
    const auto full = generate(stage, prompt, opt);
    ASSERT_EQ(cached.size(), prompt.size() + 24);
    EXPECT_EQ(cached, full) << (greedy ? "greedy" : "sampled");
  }

  // A wrong sum over the second panel can leave the argmax alone, so the
  // logits of every decode step must equal the full forward's last row too.
  const std::int64_t total = static_cast<std::int64_t>(prompt.size()) + 24;
  PagedKvCache kv({c.num_layers, stage.kv_heads_local() * stage.kv_head_dim(),
                   /*block_tokens=*/8, /*capacity_blocks=*/(total + 7) / 8, false});
  ASSERT_TRUE(kv.try_reserve(0, total));
  std::vector<std::int32_t> ctx = prompt;
  std::int64_t cached = 0;
  while (static_cast<std::int64_t>(ctx.size()) <= total) {
    const auto len = static_cast<std::int64_t>(ctx.size());
    const DecodeSeq seq{0, cached, len - cached};
    const std::span<const std::int32_t> fresh(ctx.data() + cached,
                                              static_cast<std::size_t>(len - cached));
    const tensor::Tensor step =
        stage.decode(std::span<const DecodeSeq>(&seq, 1), fresh, kv);
    const tensor::Tensor full = forward_logits(stage, ctx, len, 1);
    const auto last =
        full.data().subspan(static_cast<std::size_t>((len - 1) * c.vocab));
    ASSERT_TRUE(std::equal(step.data().begin(), step.data().end(), last.begin()))
        << "decode logits differ at kv_len " << len;
    cached = len;
    ctx.push_back(static_cast<std::int32_t>(len % c.vocab));
  }
}

TEST(Generate, KvCacheTensorParallelMatchesSerialSampled) {
  // The acceptance sweep: t ∈ {1, 2} × {greedy, sampled} must all agree.
  GptConfig c = tiny();
  std::vector<std::int32_t> prompt{2, 7, 11};
  GenerateOptions greedy_opt;
  greedy_opt.max_new_tokens = 6;
  GenerateOptions sampled_opt = greedy_opt;
  sampled_opt.greedy = false;
  sampled_opt.temperature = 1.1f;
  sampled_opt.top_k = 12;
  sampled_opt.seed = 3;

  dist::Comm solo = dist::Comm::solo();
  GptStage serial(c, solo, whole(c));
  const auto greedy_serial = generate(serial, prompt, greedy_opt);
  const auto sampled_serial = generate(serial, prompt, sampled_opt);

  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    GptStage stage(c, comm, whole(c));
    EXPECT_EQ(generate(stage, prompt, greedy_opt), greedy_serial)
        << "rank " << comm.rank();
    EXPECT_EQ(generate(stage, prompt, sampled_opt), sampled_serial)
        << "rank " << comm.rank();
  });
}

TEST(Generate, TopKRestrictsAndTieBreaksDeterministically) {
  // top_k = 1 must reduce to argmax; top_k = 2 must only ever emit the two
  // highest logits; ties at the k-th value resolve toward lower token ids.
  std::vector<float> row{0.1f, 2.0f, -1.0f, 2.0f, 1.5f, 0.0f};
  GenerateOptions opt;
  opt.greedy = false;
  opt.temperature = 0.7f;

  opt.top_k = 1;
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sample_token(row, opt, rng), 1);  // argmax, lower-id tiebreak
  }

  opt.top_k = 2;
  Rng rng2(2);
  for (int i = 0; i < 50; ++i) {
    const std::int32_t t = sample_token(row, opt, rng2);
    EXPECT_TRUE(t == 1 || t == 3) << t;  // both logit-2.0 tokens, nothing else
  }

  opt.top_k = 0;  // unrestricted: every token reachable in principle
  Rng rng3(3);
  std::vector<int> seen(row.size(), 0);
  for (int i = 0; i < 400; ++i) {
    const std::int32_t t = sample_token(row, opt, rng3);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, static_cast<std::int32_t>(row.size()));
    ++seen[static_cast<std::size_t>(t)];
  }
  EXPECT_GT(seen[1], seen[2]);  // higher logit, more mass
}

TEST(Generate, SamplingIsRankDeterministic) {
  // Two Rng instances with the same (seed, stream) must drive sample_token
  // through identical draws — the property every tensor rank relies on.
  std::vector<float> row{0.3f, 1.0f, 0.2f, 0.9f, 0.6f};
  GenerateOptions opt;
  opt.greedy = false;
  opt.temperature = 1.3f;
  opt.top_k = 3;
  Rng a(7, substream(0x9E4EA7E));
  Rng b(7, substream(0x9E4EA7E));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_token(row, opt, a), sample_token(row, opt, b));
  }
  EXPECT_EQ(a.counter(), b.counter());
}

TEST(Generate, TrainedModelLearnsBigramRule) {
  // Train on the synthetic corpus (70% deterministic successor), then
  // check greedy generation follows the successor rule most of the time.
  GptConfig c = tiny();
  c.num_layers = 2;
  dist::Comm solo = dist::Comm::solo();
  GptStage stage(c, solo, whole(c));
  optim::Adam adam(stage.params(), {.lr = 5e-3f});

  data::SyntheticCorpus corpus(c.vocab, 17);
  data::TokenDataset dataset(corpus.generate(20000), c.seq);
  data::ShardedLoader loader(dataset, /*B=*/16, /*b=*/4, 1, 0, 9);
  for (int step = 0; step < 60; ++step) {
    stage.zero_grads();
    auto mbs = loader.next_batch(step);
    const float scale = 1.0f / static_cast<float>(mbs.size());
    for (const auto& mb : mbs) {
      StageCache cache;
      stage.forward(tensor::Tensor(), mb, cache);
      stage.backward(tensor::Tensor(), scale, cache, mb);
    }
    adam.step();
  }

  // Measure next-token accuracy against the corpus's own continuation.
  auto stream = corpus.generate(4000);
  int correct = 0, total = 0;
  for (std::size_t i = 1000; i < 1200; ++i) {
    std::span<const std::int32_t> ctx(stream.data() + i - 8, 8);
    const tensor::Tensor logits = forward_logits(stage, ctx, 8, 1);
    std::int32_t best = 0;
    float best_v = -1e30f;
    for (std::int64_t v = 0; v < c.vocab; ++v) {
      const float lv = logits.at({7, v});
      if (lv > best_v) {
        best_v = lv;
        best = static_cast<std::int32_t>(v);
      }
    }
    if (best == stream[i]) ++correct;
    ++total;
  }
  // The rule fires 70% of the time; a model that learned it predicts well
  // above chance (1/32 ≈ 3%). Require > 40%.
  EXPECT_GT(static_cast<double>(correct) / total, 0.4)
      << correct << "/" << total;
}

}  // namespace
}  // namespace ptdp::model
