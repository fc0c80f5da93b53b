// Resharding tests: a checkpoint trained under one (p, t) layout, merged
// to a serial checkpoint and/or re-split to a different tensor width, must
// continue training with exactly the losses the original run produces.

#include <gtest/gtest.h>

#include <filesystem>

#include "ptdp/ckpt/manifest.hpp"
#include "ptdp/ckpt/reshard.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"

namespace ptdp::ckpt {
namespace {

using core::EngineOptions;
using core::PtdpEngine;

TEST(ShardAxis, CanonicalNames) {
  EXPECT_EQ(shard_axis("embedding.word"), 0);
  EXPECT_EQ(shard_axis("embedding.pos"), -1);
  EXPECT_EQ(shard_axis("layer3.attn.qkv.weight"), 1);
  EXPECT_EQ(shard_axis("layer3.attn.qkv.bias"), 0);
  EXPECT_EQ(shard_axis("layer3.attn.proj.weight"), 0);
  EXPECT_EQ(shard_axis("layer3.attn.proj.bias"), -1);
  EXPECT_EQ(shard_axis("layer0.mlp.fc1.weight"), 1);
  EXPECT_EQ(shard_axis("layer0.mlp.fc1.bias"), 0);
  EXPECT_EQ(shard_axis("layer0.mlp.fc2.weight"), 0);
  EXPECT_EQ(shard_axis("layer0.mlp.fc2.bias"), -1);
  EXPECT_EQ(shard_axis("layer5.ln1.gamma"), -1);
  EXPECT_EQ(shard_axis("final_ln.beta"), -1);
  EXPECT_EQ(shard_axis("adam.step_count"), -1);
  EXPECT_EQ(shard_axis("loss_scaler.state"), -1);
}

TEST(ShardAxis, OptimizerStateFollowsBaseParam) {
  EXPECT_EQ(shard_axis("layer3.attn.qkv.weight.adam_m"), 1);
  EXPECT_EQ(shard_axis("layer3.attn.qkv.weight.adam_v"), 1);
  EXPECT_EQ(shard_axis("embedding.word.fp32_master"), 0);
  EXPECT_EQ(shard_axis("layer0.mlp.fc2.weight.sgd_velocity"), 0);
  EXPECT_EQ(shard_axis("layer0.ln2.gamma.adam_m"), -1);
}

class ReshardFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ptdp_reshard_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    config_.num_layers = 2;
    config_.hidden = 16;
    config_.heads = 4;
    config_.vocab = 32;
    config_.seq = 8;
    config_.seed = 99;
    corpus_ = std::make_unique<data::SyntheticCorpus>(config_.vocab, 4);
    dataset_ = std::make_unique<data::TokenDataset>(corpus_->generate(4000),
                                                    config_.seq);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineOptions options_for(int p, int t) {
    EngineOptions o;
    o.model = config_;
    o.parallel.p = p;
    o.parallel.t = t;
    o.parallel.b = 1;
    o.parallel.recompute = false;
    o.global_batch = 4;
    o.optimizer = EngineOptions::Opt::kAdam;
    o.adam.lr = 2e-3f;
    return o;
  }

  // Trains 2 steps under (p, t), saves shards, returns the next-step loss
  // the original layout would produce.
  float train_and_save(int p, int t) {
    float next_loss = 0;
    std::mutex mu;
    dist::World world(p * t);
    world.run([&](dist::Comm& comm) {
      PtdpEngine engine(comm, options_for(p, t));
      data::ShardedLoader loader(*dataset_, 4, 1, 1, 0, 8);
      engine.train_step(loader.next_batch(0));
      engine.train_step(loader.next_batch(1));
      engine.save_checkpoint(dir_.string(), 2);
      const float loss = engine.train_step(loader.next_batch(2));
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        next_loss = loss;
      }
    });
    return next_loss;
  }

  // Continues one step under (p=1, t) from a resharded checkpoint dir.
  float resume_resharded(int t, const std::string& shard_dir) {
    float loss = 0;
    std::mutex mu;
    dist::World world(t);
    world.run([&](dist::Comm& comm) {
      PtdpEngine engine(comm, options_for(1, t));
      EXPECT_EQ(engine.load_resharded(shard_dir), 2u);
      data::ShardedLoader loader(*dataset_, 4, 1, 1, 0, 8);
      const float l = engine.train_step(loader.next_batch(2));
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        loss = l;
      }
    });
    return loss;
  }

  // Engine saves are committed checkpoints now: shards live under
  // <dir>/step-<N>, resolved through the manifest like any consumer would.
  std::string shard_dir() {
    const auto best = find_latest_valid_checkpoint(dir_.string());
    EXPECT_TRUE(best.has_value()) << "no committed checkpoint under " << dir_;
    return best ? best->shard_dir : dir_.string();
  }

  std::filesystem::path dir_;
  model::GptConfig config_;
  std::unique_ptr<data::SyntheticCorpus> corpus_;
  std::unique_ptr<data::TokenDataset> dataset_;
};

TEST_F(ReshardFixture, MergeTensorParallelToSerial) {
  const float expected = train_and_save(/*p=*/1, /*t=*/2);
  const auto merged_dir = dir_ / "merged";
  std::filesystem::create_directories(merged_dir);
  const auto meta =
      merge_shards(shard_dir(), 1, 2, shard_path(merged_dir.string(), 0, 0, 0));
  EXPECT_EQ(meta.step, 2u);
  const float resumed = resume_resharded(/*t=*/1, merged_dir.string());
  EXPECT_NEAR(resumed, expected, 1e-4f);
}

TEST_F(ReshardFixture, MergePipelineToSerial) {
  const float expected = train_and_save(/*p=*/2, /*t=*/2);
  const auto merged_dir = dir_ / "merged";
  std::filesystem::create_directories(merged_dir);
  merge_shards(shard_dir(), 2, 2, shard_path(merged_dir.string(), 0, 0, 0));
  const float resumed = resume_resharded(/*t=*/1, merged_dir.string());
  EXPECT_NEAR(resumed, expected, 1e-4f);
}

TEST_F(ReshardFixture, SplitToWiderTensorParallelism) {
  // Train at t=2, merge, re-split to t=4, resume at t=4.
  const float expected = train_and_save(/*p=*/1, /*t=*/2);
  const auto merged = dir_ / "merged.ckpt";
  merge_shards(shard_dir(), 1, 2, merged.string());
  const auto split_dir = dir_ / "t4";
  std::filesystem::create_directories(split_dir);
  split_shards(merged.string(), 4, split_dir.string());
  const float resumed = resume_resharded(/*t=*/4, split_dir.string());
  EXPECT_NEAR(resumed, expected, 1e-4f);
}

TEST_F(ReshardFixture, SplitMergeRoundTripIsExact) {
  train_and_save(1, 2);
  const auto merged = dir_ / "m1.ckpt";
  merge_shards(shard_dir(), 1, 2, merged.string());
  const auto split_dir = dir_ / "again";
  std::filesystem::create_directories(split_dir);
  split_shards(merged.string(), 2, split_dir.string());
  const auto merged2 = dir_ / "m2.ckpt";
  merge_shards(split_dir.string(), 1, 2, merged2.string());

  const auto a = read_all(merged.string());
  const auto b = read_all(merged2.string());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(tensor::max_abs_diff(a[i].second, b[i].second), 0.0f) << a[i].first;
  }
}

TEST_F(ReshardFixture, SplitRejectsNonDivisibleWidth) {
  train_and_save(1, 1);
  const auto merged = dir_ / "m.ckpt";
  merge_shards(shard_dir(), 1, 1, merged.string());
  const auto split_dir = dir_ / "t3";
  std::filesystem::create_directories(split_dir);
  // heads = 4, hidden = 16: t = 3 divides neither.
  EXPECT_THROW(split_shards(merged.string(), 3, split_dir.string()), CheckError);
}

TEST_F(ReshardFixture, ReadAllReturnsEverything) {
  train_and_save(1, 1);
  CheckpointMeta meta;
  const auto all = read_all(shard_path(shard_dir(), 0, 0, 0), &meta);
  EXPECT_EQ(meta.step, 2u);
  // params + adam m/v per param + step counter.
  bool has_word = false, has_step = false;
  for (const auto& [name, t] : all) {
    if (name == "embedding.word") has_word = true;
    if (name == "adam.step_count") has_step = true;
  }
  EXPECT_TRUE(has_word);
  EXPECT_TRUE(has_step);
}

}  // namespace
}  // namespace ptdp::ckpt
