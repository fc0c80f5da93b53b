// Evaluation-path and grad-bucketing tests: forward-only validation loss
// is layout-invariant, disables dropout, and leaves all state untouched;
// bucketed data-parallel all-reduce produces identical training whatever
// the bucket size.

#include <gtest/gtest.h>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::core {
namespace {

model::GptConfig tiny(float dropout = 0.0f) {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 8;
  c.dropout = dropout;
  c.seed = 404;
  return c;
}

float eval_on_grid(const model::GptConfig& c, int p, int t, int d, int v = 1) {
  data::SyntheticCorpus corpus(c.vocab, 7);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  float result = 0;
  std::mutex mu;
  dist::World world(p * t * d);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = p;
    options.parallel.t = t;
    options.parallel.d = d;
    options.parallel.v = v;
    options.parallel.b = 1;
    options.parallel.schedule = v > 1 ? pipeline::ScheduleType::kInterleaved
                                      : pipeline::ScheduleType::kOneFOneB;
    options.parallel.recompute = false;
    options.global_batch = 8;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, 8, 1, d, engine.groups().coord().data, 66);
    const float loss = engine.evaluate(loader.next_batch(0));
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      result = loss;
    }
  });
  return result;
}

TEST(Evaluate, LayoutInvariant) {
  model::GptConfig c = tiny();
  const float serial = eval_on_grid(c, 1, 1, 1);
  EXPECT_NEAR(eval_on_grid(c, 2, 1, 1), serial, 1e-4f);
  EXPECT_NEAR(eval_on_grid(c, 1, 2, 1), serial, 1e-4f);
  EXPECT_NEAR(eval_on_grid(c, 1, 1, 2), serial, 1e-4f);
  EXPECT_NEAR(eval_on_grid(c, 2, 2, 2), serial, 1e-4f);
  // The interleaved case needs p*v = 4 layer groups.
  model::GptConfig c4 = tiny();
  c4.num_layers = 4;
  EXPECT_NEAR(eval_on_grid(c4, 2, 1, 1, /*v=*/2), eval_on_grid(c4, 1, 1, 1), 1e-4f);
  // Initial loss near ln(V) on random weights.
  EXPECT_NEAR(serial, std::log(32.0f), 0.7f);
}

TEST(Evaluate, DisablesDropout) {
  // With dropout configured, evaluate() must return the deterministic
  // no-dropout loss — identical to the dropout-free model's evaluation.
  model::GptConfig with = tiny(0.3f);
  model::GptConfig without = tiny(0.0f);
  EXPECT_FLOAT_EQ(eval_on_grid(with, 1, 1, 1), eval_on_grid(without, 1, 1, 1));
}

TEST(Evaluate, DropoutRestoredForTraining) {
  // After evaluate(), training must still use the configured dropout:
  // a train step changes the loss differently than the eval loss suggests,
  // and two identical (eval, train) sequences stay deterministic.
  model::GptConfig c = tiny(0.2f);
  data::SyntheticCorpus corpus(c.vocab, 7);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  std::vector<float> run1, run2;
  for (auto* sink : {&run1, &run2}) {
    dist::World world(1);
    world.run([&](dist::Comm& comm) {
      EngineOptions options;
      options.model = c;
      options.parallel.b = 1;
      options.parallel.recompute = false;
      options.global_batch = 4;
      options.sgd.lr = 0.05f;
      PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, 4, 1, 1, 0, 66);
      sink->push_back(engine.evaluate(loader.next_batch(0)));
      sink->push_back(engine.train_step(loader.next_batch(0)));
      sink->push_back(engine.evaluate(loader.next_batch(1)));
    });
  }
  EXPECT_EQ(run1, run2);
  // The training loss (with dropout active) differs from the eval loss on
  // the same batch (dropout off) — evidence dropout was restored.
  EXPECT_NE(run1[0], run1[1]);
}

TEST(Evaluate, DoesNotMutateState) {
  model::GptConfig c = tiny();
  data::SyntheticCorpus corpus(c.vocab, 7);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  dist::World world(1);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    PtdpEngine engine(comm, options);
    std::vector<tensor::Tensor> before;
    for (model::Param* p : engine.params()) before.push_back(p->value.clone());
    data::ShardedLoader loader(dataset, 4, 1, 1, 0, 66);
    (void)engine.evaluate(loader.next_batch(0));
    std::size_t i = 0;
    for (model::Param* p : engine.params()) {
      EXPECT_EQ(tensor::max_abs_diff(p->value, before[i++]), 0.0f) << p->name;
      for (float g : p->grad.data()) EXPECT_EQ(g, 0.0f) << p->name;
    }
    EXPECT_EQ(engine.steps_completed(), 0);
  });
}

TEST(Bucketing, TrajectoryIndependentOfBucketSize) {
  model::GptConfig c = tiny();
  data::SyntheticCorpus corpus(c.vocab, 7);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  auto run = [&](std::int64_t bucket) {
    std::vector<float> losses;
    std::mutex mu;
    dist::World world(2);
    world.run([&](dist::Comm& comm) {
      EngineOptions options;
      options.model = c;
      options.parallel.d = 2;
      options.parallel.b = 1;
      options.parallel.recompute = false;
      options.global_batch = 4;
      options.optimizer = EngineOptions::Opt::kAdam;
      options.dp_bucket_elems = bucket;
      PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, 4, 1, 2, engine.groups().coord().data,
                                 66);
      for (int s = 0; s < 3; ++s) {
        const float loss = engine.train_step(loader.next_batch(s));
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          losses.push_back(loss);
        }
      }
    });
    return losses;
  };
  // cap 1 < every grad: each parameter is reduced in a bucket of its own.
  const auto per_param = run(1);
  // Bucket sizes that split mid-list and that fit everything.
  for (std::int64_t bucket : {64, 1 << 16, 1 << 24}) {
    const auto bucketed = run(bucket);
    ASSERT_EQ(bucketed.size(), per_param.size()) << "bucket=" << bucket;
    for (std::size_t i = 0; i < per_param.size(); ++i) {
      EXPECT_NEAR(bucketed[i], per_param[i], 1e-5f)
          << "bucket=" << bucket << " step=" << i;
    }
  }
}

}  // namespace
}  // namespace ptdp::core
