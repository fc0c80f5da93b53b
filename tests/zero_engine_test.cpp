// ZeRO-backed PTD-P (the §6 note that "ZeRO can be combined with model
// parallelism"): the engine with a ZeRO-sharded Adam over the data group
// must produce exactly the loss trajectory of the engine with replicated
// Adam, for pure-DP and full-3D grids, while each rank holds ~1/d of the
// optimizer state.

#include <gtest/gtest.h>

#include <filesystem>

#include <tuple>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/zero/sharded_optimizer.hpp"

namespace ptdp::core {
namespace {

model::GptConfig tiny() {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 8;
  c.seed = 303;
  return c;
}

std::vector<float> run_trajectory(const model::GptConfig& c, int p, int t, int d,
                                  EngineOptions::Opt opt, int steps) {
  data::SyntheticCorpus corpus(c.vocab, 6);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  std::vector<float> losses;
  std::mutex mu;
  dist::World world(p * t * d);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = p;
    options.parallel.t = t;
    options.parallel.d = d;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 8;
    options.optimizer = opt;
    options.adam.lr = 2e-3f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, 8, 1, d, engine.groups().coord().data, 44);
    for (int s = 0; s < steps; ++s) {
      const float loss = engine.train_step(loader.next_batch(s));
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        losses.push_back(loss);
      }
    }
  });
  return losses;
}

using Grid = std::tuple<int, int, int>;

class ZeroEngineTest : public ::testing::TestWithParam<Grid> {};

TEST_P(ZeroEngineTest, MatchesReplicatedAdamTrajectory) {
  const auto [p, t, d] = GetParam();
  model::GptConfig c = tiny();
  const auto adam = run_trajectory(c, p, t, d, EngineOptions::Opt::kAdam, 3);
  const auto zero = run_trajectory(c, p, t, d, EngineOptions::Opt::kZeroAdam, 3);
  ASSERT_EQ(adam.size(), zero.size());
  for (std::size_t i = 0; i < adam.size(); ++i) {
    EXPECT_NEAR(zero[i], adam[i], 2e-4f) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, ZeroEngineTest,
                         ::testing::Values(Grid{1, 1, 2}, Grid{1, 1, 4},
                                           Grid{1, 2, 2}, Grid{2, 1, 2},
                                           Grid{2, 2, 2}));

TEST(ZeroEngine, StateIsShardedAcrossReplicas) {
  model::GptConfig c = tiny();
  data::SyntheticCorpus corpus(c.vocab, 6);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.d = 4;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 8;
    options.optimizer = EngineOptions::Opt::kZeroAdam;
    PtdpEngine engine(comm, options);
    auto* zero = dynamic_cast<zero::ZeroShardedAdam*>(&engine.optimizer());
    ASSERT_NE(zero, nullptr);
    std::int64_t total = 0;
    for (model::Param* param : engine.params()) total += param->value.numel();
    // Shard is ~1/4 of the flattened space (padding aside).
    EXPECT_LE(zero->shard_elems(), total / 4 + 4);
  });
}

TEST(ZeroEngine, RejectsIncompatibleFeatures) {
  // bf16 weights need fp32 masters, which the sharded state does not carry;
  // clipping needs the full grad norm, which no rank holds.
  for (const bool bf16 : {true, false}) {
    model::GptConfig c = tiny();
    if (bf16) c.dtype = tensor::DType::kBf16;
    dist::World world(2);
    EXPECT_THROW(world.run([&](dist::Comm& comm) {
                   EngineOptions options;
                   options.model = c;
                   options.parallel.d = 2;
                   options.parallel.b = 1;
                   options.global_batch = 4;
                   options.optimizer = EngineOptions::Opt::kZeroAdam;
                   if (!bf16) options.grad_clip = 1.0;
                   PtdpEngine engine(comm, options);
                 }),
                 dist::RankFailure)
        << (bf16 ? "bf16" : "grad_clip");
  }
}

TEST(ZeroEngine, CheckpointCarriesShardedState) {
  model::GptConfig c = tiny();
  data::SyntheticCorpus corpus(c.vocab, 6);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ptdp_zero_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::vector<float> cont, resumed;
  std::mutex mu;
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.d = 2;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.optimizer = EngineOptions::Opt::kZeroAdam;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, 4, 1, 2, engine.groups().coord().data, 5);
    engine.train_step(loader.next_batch(0));
    engine.save_checkpoint(dir.string(), 1);
    const float loss = engine.train_step(loader.next_batch(1));
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      cont.push_back(loss);
    }
  });
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.d = 2;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.optimizer = EngineOptions::Opt::kZeroAdam;
    PtdpEngine engine(comm, options);
    EXPECT_EQ(engine.load_checkpoint(dir.string()), 1u);
    data::ShardedLoader loader(dataset, 4, 1, 2, engine.groups().coord().data, 5);
    const float loss = engine.train_step(loader.next_batch(1));
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      resumed.push_back(loss);
    }
  });
  std::filesystem::remove_all(dir);
  ASSERT_EQ(cont.size(), resumed.size());
  EXPECT_FLOAT_EQ(cont[0], resumed[0]);
}

}  // namespace
}  // namespace ptdp::core
