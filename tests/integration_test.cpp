// Integration tests: whole-system scenarios that cross every module
// boundary — the full feature stack at once (3D grid + interleaved
// schedule + recomputation + dropout + mixed precision + clipping),
// planner-to-engine round trips, data-parallel equivalence with dropout,
// and multi-engine World reuse.

#include <gtest/gtest.h>

#include <cmath>

#include "ptdp/core/engine.hpp"
#include "ptdp/core/planner.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/model/generate.hpp"

namespace ptdp::core {
namespace {

using model::GptConfig;

GptConfig small_config(std::int64_t layers, float dropout = 0.0f) {
  GptConfig c;
  c.num_layers = layers;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 8;
  c.dropout = dropout;
  c.seed = 505;
  return c;
}

TEST(Integration, EverythingAtOnce) {
  // p=2 (interleaved v=2), t=2, d=2 on 8 ranks, with dropout,
  // recomputation, bf16 mixed precision, and gradient clipping — and the
  // loss still exactly matches the serial run with the same features.
  GptConfig c = small_config(/*layers=*/4, /*dropout=*/0.1f);
  c.dtype = tensor::DType::kBf16;
  data::SyntheticCorpus corpus(c.vocab, 3);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  const std::int64_t B = 8;
  const int steps = 3;

  auto run = [&](int p, int t, int d, int v) {
    std::vector<float> losses;
    dist::World world(p * t * d);
    std::mutex mu;
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
      options.parallel.recompute = true;
      options.global_batch = B;
      options.optimizer = EngineOptions::Opt::kAdam;
      options.adam.lr = 2e-3f;
      options.grad_clip = 1.0;
      PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, B, 1, d, engine.groups().coord().data, 77);
      for (int s = 0; s < steps; ++s) {
        const float loss = engine.train_step(loader.next_batch(s));
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          losses.push_back(loss);
        }
      }
    });
    return losses;
  };

  const auto serial = run(1, 1, 1, 1);
  const auto full = run(2, 2, 2, 2);
  ASSERT_EQ(serial.size(), full.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // bf16 working weights accumulate small rounding differences across
    // differently-ordered reductions; tolerance reflects bf16 resolution.
    EXPECT_NEAR(full[i], serial[i], 0.02f) << "step " << i;
  }
}

TEST(Integration, DataParallelEquivalenceWithDropout) {
  // The loader's sample/tag layout makes d=2 reproduce d=1 exactly even
  // with dropout enabled (masks are keyed by step/microbatch tags that
  // agree across layouts).
  GptConfig c = small_config(2, /*dropout=*/0.15f);
  data::SyntheticCorpus corpus(c.vocab, 5);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  const std::int64_t B = 8;

  auto run = [&](int d) {
    std::vector<float> losses;
    std::mutex mu;
    dist::World world(d);
    world.run([&](dist::Comm& comm) {
      EngineOptions options;
      options.model = c;
      options.parallel.d = d;
      options.parallel.b = 2;
      options.parallel.recompute = false;
      options.global_batch = B;
      options.sgd.lr = 0.1f;
      PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, B, 2, d, engine.groups().coord().data, 31);
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
  const auto d1 = run(1);
  const auto d2 = run(2);
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_NEAR(d1[i], d2[i], 1e-3f) << "step " << i;
  }
}

TEST(Integration, PlannerConfigurationActuallyRuns) {
  // Plan for a 4-GPU "cluster" with the analytic model, then execute the
  // chosen configuration functionally end to end.
  GptConfig c = small_config(4);
  PlannerInput input;
  input.model = c;
  input.n_gpus = 4;
  input.gpus_per_node = 2;
  input.global_batch = 8;
  input.microbatch_candidates = {1, 2};
  const Plan plan = plan_configuration(input);
  const ParallelConfig cfg = plan.best.config;
  ASSERT_EQ(cfg.n(), 4);

  data::SyntheticCorpus corpus(c.vocab, 9);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel = cfg;
    options.global_batch = input.global_batch;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, input.global_batch, cfg.b, cfg.d,
                               engine.groups().coord().data, 2);
    const float loss = engine.train_step(loader.next_batch(0));
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_NEAR(loss, std::log(static_cast<float>(c.vocab)), 1.0f);
  });
}

TEST(Integration, ConvergesAcrossLayouts) {
  // Same training run on two different grids converges to the same loss
  // neighborhood (not just step-for-step equality — a longer horizon).
  GptConfig c = small_config(2);
  data::SyntheticCorpus corpus(c.vocab, 21);
  data::TokenDataset dataset(corpus.generate(8000), c.seq);

  auto final_loss = [&](int p, int t, int d) {
    float result = 0;
    dist::World world(p * t * d);
    std::mutex mu;
    world.run([&](dist::Comm& comm) {
      EngineOptions options;
      options.model = c;
      options.parallel.p = p;
      options.parallel.t = t;
      options.parallel.d = d;
      options.parallel.b = 2;
      options.parallel.recompute = false;
      options.global_batch = 8;
      options.optimizer = EngineOptions::Opt::kAdam;
      options.adam.lr = 4e-3f;
      PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, 8, 2, d, engine.groups().coord().data, 6);
      float loss = 0;
      for (int s = 0; s < 20; ++s) loss = engine.train_step(loader.next_batch(s));
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        result = loss;
      }
    });
    return result;
  };

  const float serial = final_loss(1, 1, 1);
  const float grid = final_loss(2, 2, 1);
  EXPECT_LT(serial, std::log(static_cast<float>(c.vocab)) - 0.2f);  // learned
  EXPECT_NEAR(grid, serial, 0.05f);
}

TEST(Integration, MultipleEnginesShareOneWorld) {
  // Two sequential training jobs in one World: communicator ids must not
  // collide and no messages may leak between them.
  GptConfig c = small_config(2);
  data::SyntheticCorpus corpus(c.vocab, 2);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  dist::World world(2);
  for (int job = 0; job < 2; ++job) {
    world.run([&](dist::Comm& comm) {
      EngineOptions options;
      options.model = c;
      options.parallel.p = 2;
      options.parallel.b = 1;
      options.parallel.recompute = false;
      options.global_batch = 4;
      PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, 4, 1, 1, 0, 12);
      const float loss = engine.train_step(loader.next_batch(job));
      EXPECT_TRUE(std::isfinite(loss));
    });
    EXPECT_EQ(world.pending_messages(), 0u) << "job " << job << " leaked messages";
  }
}

TEST(Integration, TrainThenGenerateThroughEngine) {
  // Train with tensor parallelism through the engine, then sample from the
  // engine's own stage on every rank — identical outputs.
  GptConfig c = small_config(2);
  data::SyntheticCorpus corpus(c.vocab, 19);
  data::TokenDataset dataset(corpus.generate(6000), c.seq);
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.t = 2;
    options.parallel.b = 2;
    options.parallel.recompute = false;
    options.global_batch = 8;
    options.optimizer = EngineOptions::Opt::kAdam;
    options.adam.lr = 4e-3f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, 8, 2, 1, 0, 14);
    for (int s = 0; s < 10; ++s) engine.train_step(loader.next_batch(s));

    model::GenerateOptions gen;
    gen.max_new_tokens = 6;
    std::vector<std::int32_t> prompt{1, 2};
    const auto tokens = model::generate(engine.chunk(0), prompt, gen);
    EXPECT_EQ(tokens.size(), 8u);
    // Cross-rank agreement: exchange and compare.
    std::vector<std::int32_t> other(tokens.size());
    comm.send(std::span<const std::int32_t>(tokens), 1 - comm.rank(), 42);
    comm.recv(std::span<std::int32_t>(other), 1 - comm.rank(), 42);
    EXPECT_EQ(tokens, other);
  });
}

}  // namespace
}  // namespace ptdp::core
