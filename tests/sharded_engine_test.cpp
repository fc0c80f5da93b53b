// The engine's data-parallel step is sharded (ZeRO-1/2, DESIGN.md §9 — the
// §6 note that "ZeRO can be combined with model parallelism"): on pure-DP
// and full-3D grids it must produce exactly the weights, state and loss
// scale of the replicated step it replaced, while each rank holds ~1/d of
// the optimizer state. Checkpoints keep the replicated format, so a sharded
// run resumes bitwise and loads at another d.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <tuple>

#include "optim_reference.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"

namespace ptdp::core {
namespace {

using tensor::DType;
using tensor::Tensor;

model::GptConfig tiny(DType dtype) {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 8;
  c.seed = 303;
  c.dtype = dtype;
  return c;
}

EngineOptions adam_options(const model::GptConfig& c, int p, int t, int d) {
  EngineOptions options;
  options.model = c;
  options.parallel.p = p;
  options.parallel.t = t;
  options.parallel.d = d;
  options.parallel.b = 1;
  options.parallel.recompute = false;
  options.global_batch = 8;
  options.optimizer = EngineOptions::Opt::kAdam;
  options.adam.lr = 2e-3f;
  options.adam.weight_decay = 0.01f;
  // Small buckets: several per chunk, split across owners.
  options.dp_bucket_elems = 700;
  // Grow the scale every other step so the run exercises growth.
  options.scaler.growth_interval = 2;
  return options;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  const auto ba = a.raw_bytes();
  const auto bb = b.raw_bytes();
  return a.dtype() == b.dtype() && a.same_shape(b) &&
         std::memcmp(ba.data(), bb.data(), ba.size()) == 0;
}

using Grid = std::tuple<int, int, int>;

class ZeroEngineTest : public ::testing::TestWithParam<Grid> {};

// The oracle: the same stage and pipeline executor the engine builds, then
// the replicated step — embedding-group sync, Comm::all_reduce of the same
// buckets x1/d, and reference::OptimizerStep over full params.
TEST_P(ZeroEngineTest, MatchesReplicatedAdamTrajectory) {
  const auto [p, t, d] = GetParam();
  for (const DType dtype : {DType::kF32, DType::kBf16}) {
    SCOPED_TRACE(tensor::dtype_name(dtype));
    const model::GptConfig c = tiny(dtype);
    data::SyntheticCorpus corpus(c.vocab, 6);
    data::TokenDataset dataset(corpus.generate(4000), c.seq);
    dist::World world(p * t * d);
    world.run([&](dist::Comm& comm) {
      const EngineOptions options = adam_options(c, p, t, d);
      PtdpEngine engine(comm, options);

      dist::ProcessGroups groups(comm, p, t, d);
      const int rank = groups.coord().pipeline;
      model::StageSpec spec;
      spec.has_embedding = rank == 0;
      spec.has_head = rank == p - 1;
      spec.layer_begin = rank * (c.num_layers / p);
      spec.layer_end = (rank + 1) * (c.num_layers / p);
      spec.recompute = false;
      model::GptStage stage(c, groups.tensor(), spec);
      pipeline::ExecutorOptions exec_opts;
      exec_opts.boundary_dtype = c.dtype;
      pipeline::PipelineExecutor executor(
          {&stage}, groups.pipeline(), groups.tensor(),
          options.parallel.schedule_params(options.global_batch), exec_opts);
      std::optional<optim::LossScalerOptions> scaler;
      if (dtype == DType::kBf16) scaler = options.scaler;
      reference::OptimizerStep oracle(stage.params(), options.adam, scaler);

      data::ShardedLoader loader(dataset, 8, 1, d, groups.coord().data, 44);
      for (int s = 0; s < 3; ++s) {
        const auto batch = loader.next_batch(s);
        const float loss = engine.train_step(batch);

        stage.zero_grads();
        float ref_loss = executor.run_batch(batch, oracle.scale());
        if (p > 1 && groups.in_embedding_group()) {
          groups.embedding().all_reduce(stage.word_embedding_param()->grad.data());
        }
        reference::all_reduce_mean(stage.params(), groups.data(), options.dp_bucket_elems);
        oracle.step();
        if (p > 1) ref_loss = groups.pipeline().all_reduce_scalar(ref_loss);
        ref_loss = groups.data().all_reduce_scalar(ref_loss) / static_cast<float>(d);

        EXPECT_EQ(loss, ref_loss) << "step " << s;
        EXPECT_EQ(engine.optimizer().loss_scale(), oracle.scale()) << "step " << s;
        const model::ParamRefs mine = engine.params();
        const model::ParamRefs ref = stage.params();
        ASSERT_EQ(mine.size(), ref.size());
        for (std::size_t i = 0; i < mine.size(); ++i) {
          EXPECT_TRUE(same_bits(mine[i]->value, ref[i]->value))
              << mine[i]->name << " step " << s << " rank " << comm.rank();
        }
        const optim::NamedState a = engine.optimizer().state_tensors();
        const optim::NamedState b = oracle.state_tensors();
        ASSERT_EQ(a.size(), b.size() + (scaler ? 1 : 0));
        for (std::size_t k = 0; k < b.size(); ++k) {
          EXPECT_EQ(a[k].first, b[k].first);
          EXPECT_TRUE(same_bits(*a[k].second, *b[k].second))
              << a[k].first << " step " << s << " rank " << comm.rank();
        }
        engine.optimizer().commit_state();
      }
    });
  }
}

// (2, x, 2): the tied word embedding is deferred and reduced from finish().
INSTANTIATE_TEST_SUITE_P(Grids, ZeroEngineTest,
                         ::testing::Values(Grid{1, 1, 2}, Grid{1, 1, 4},
                                           Grid{1, 2, 2}, Grid{2, 1, 2},
                                           Grid{2, 2, 2}));

TEST(ZeroEngine, StateIsShardedAcrossReplicas) {
  const model::GptConfig c = tiny(DType::kBf16);
  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    const EngineOptions options = adam_options(c, 1, 1, 4);
    PtdpEngine engine(comm, options);
    auto* opt = dynamic_cast<optim::ElementwiseOptimizer*>(&engine.optimizer());
    ASSERT_NE(opt, nullptr);
    // The reducer's greedy bucket plan over the one chunk.
    std::int64_t total = 0, buckets = 0, len = 0;
    for (model::Param* param : engine.params()) {
      const std::int64_t n = param->value.numel();
      total += n;
      if (len == 0 || len + n > options.dp_bucket_elems) {
        ++buckets;
        len = 0;
      }
      len += n;
    }
    std::int64_t owned = 0;
    for (const model::ParamSegment& seg : opt->segments()) owned += seg.length;
    // A rank owns at most ceil(len/d) of each bucket, and keeps Adam's two
    // moments and a master for exactly those elements.
    EXPECT_LE(owned, total / 4 + buckets);
    EXPECT_EQ(opt->state_elems(), 3 * owned);
  });
}

struct RunResult {
  std::vector<float> losses;
  float loss_scale = 0.0f;
  std::map<std::string, Tensor> weights;  // rank 0's
};

TEST(ZeroEngine, CheckpointCarriesShardedState) {
  // d = 4 bf16: resuming from a step-1 checkpoint reproduces steps 1 and 2
  // of the uninterrupted run bit for bit — the loaded moments, masters and
  // scaler drive step 1's update, which step 2's loss sees.
  const model::GptConfig c = tiny(DType::kBf16);
  data::SyntheticCorpus corpus(c.vocab, 6);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ptdp_zero_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  RunResult cont, resumed;
  std::mutex mu;
  auto record = [&](RunResult& out, PtdpEngine& engine, data::ShardedLoader& loader,
                    const dist::Comm& comm) {
    for (int s = 1; s < 3; ++s) {
      const float loss = engine.train_step(loader.next_batch(s));
      if (comm.rank() == 0) out.losses.push_back(loss);
    }
    if (comm.rank() != 0) return;
    std::lock_guard lock(mu);
    out.loss_scale = engine.optimizer().loss_scale();
    for (model::Param* param : engine.params()) {
      out.weights.emplace(param->name, param->value.clone());
    }
  };
  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    PtdpEngine engine(comm, adam_options(c, 1, 1, 4));
    data::ShardedLoader loader(dataset, 8, 1, 4, engine.groups().coord().data, 5);
    engine.train_step(loader.next_batch(0));
    engine.save_checkpoint(dir.string(), 1);
    record(cont, engine, loader, comm);
  });
  world.run([&](dist::Comm& comm) {
    PtdpEngine engine(comm, adam_options(c, 1, 1, 4));
    EXPECT_EQ(engine.load_checkpoint(dir.string()), 1u);
    data::ShardedLoader loader(dataset, 8, 1, 4, engine.groups().coord().data, 5);
    record(resumed, engine, loader, comm);
  });
  std::filesystem::remove_all(dir);
  ASSERT_EQ(cont.losses.size(), 2u);
  ASSERT_EQ(resumed.losses.size(), 2u);
  for (std::size_t i = 0; i < cont.losses.size(); ++i) {
    EXPECT_EQ(cont.losses[i], resumed.losses[i]) << "step " << i + 1;
  }
  EXPECT_EQ(cont.loss_scale, resumed.loss_scale);
  for (auto& [name, w] : cont.weights) {
    EXPECT_TRUE(same_bits(w, resumed.weights.at(name))) << name;
  }
}

TEST(ZeroEngine, CheckpointFromD4LoadsAtD2) {
  // The checkpoint holds the gathered (replicated-format) state, so a d = 2
  // run loads state tensors bitwise equal to the d = 4 run's.
  const model::GptConfig c = tiny(DType::kBf16);
  data::SyntheticCorpus corpus(c.vocab, 6);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ptdp_zero_d4_d2_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::map<std::string, Tensor> saved;
  std::mutex mu;
  dist::World(4).run([&](dist::Comm& comm) {
    PtdpEngine engine(comm, adam_options(c, 1, 1, 4));
    data::ShardedLoader loader(dataset, 8, 1, 4, engine.groups().coord().data, 5);
    for (int s = 0; s < 2; ++s) engine.train_step(loader.next_batch(s));
    engine.save_checkpoint(dir.string(), 2);
    const optim::NamedState state = engine.optimizer().state_tensors();
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      for (const auto& [name, t] : state) saved.emplace(name, t->clone());
    }
    engine.optimizer().commit_state();
  });
  std::size_t compared = 0;
  dist::World(2).run([&](dist::Comm& comm) {
    PtdpEngine engine(comm, adam_options(c, 1, 1, 2));
    EXPECT_EQ(engine.load_checkpoint(dir.string()), 2u);
    const optim::NamedState state = engine.optimizer().state_tensors();
    std::lock_guard lock(mu);
    for (const auto& [name, t] : state) {
      ASSERT_TRUE(saved.contains(name)) << name;
      EXPECT_TRUE(same_bits(*t, saved.at(name))) << name << " rank " << comm.rank();
      ++compared;
    }
    engine.optimizer().commit_state();
  });
  std::filesystem::remove_all(dir);
  EXPECT_EQ(compared, 2 * saved.size());
  EXPECT_GT(saved.size(), 0u);
}

}  // namespace
}  // namespace ptdp::core
