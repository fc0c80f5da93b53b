// End-to-end PTD-P engine tests — the paper's central correctness claim:
// composing pipeline, tensor, and data parallelism with pipeline flushes
// retains *strict optimizer semantics*. We verify that multi-step training
// under every (p, t, d, v, schedule) grid reproduces the serial loss
// trajectory on identical data, plus loss decrease on the synthetic corpus,
// checkpoint/resume exactness, and mixed-precision training.

#include <gtest/gtest.h>

#include <filesystem>
#include <tuple>
#include <vector>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"

namespace ptdp::core {
namespace {

using model::GptConfig;
using model::Microbatch;

GptConfig engine_config(std::int64_t layers) {
  GptConfig c;
  c.num_layers = layers;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.0f;
  c.seed = 2024;
  return c;
}

struct DataSetup {
  data::SyntheticCorpus corpus;
  data::TokenDataset dataset;
  DataSetup(const GptConfig& c)
      : corpus(c.vocab, 55), dataset(corpus.generate(4000), c.seq) {}
};

// Serial loss trajectory with the same global batch, microbatch size, and
// sample assignment. A bf16 `c.dtype` trains with fp32 masters and loss
// scaling.
std::vector<float> serial_trajectory(const GptConfig& c, std::int64_t B,
                                     std::int64_t b, int steps,
                                     EngineOptions::Opt opt) {
  DataSetup ds(c);
  std::vector<float> losses;
  dist::World world(1);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel = ParallelConfig{};  // p = t = d = 1
    options.parallel.b = b;
    options.parallel.recompute = false;
    options.global_batch = B;
    options.optimizer = opt;
    options.sgd.lr = 0.1f;
    options.adam.lr = 1e-3f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, B, b, 1, 0, /*seed=*/88);
    for (int s = 0; s < steps; ++s) {
      auto mbs = loader.next_batch(s);
      losses.push_back(engine.train_step(mbs));
    }
  });
  return losses;
}

// (p, t, d, v, schedule, scatter_gather, overlap_grad_reduce) — the last two
// are communication-plane toggles that must never change the math (§4.1
// scatter/gather is a wire-format change; overlapped reduction reorders
// *when* the DP all-reduce runs, not what it computes).
using Grid = std::tuple<int, int, int, int, pipeline::ScheduleType, bool, bool>;

class EngineEquivalenceTest : public ::testing::TestWithParam<Grid> {};

TEST_P(EngineEquivalenceTest, LossTrajectoryMatchesSerial) {
  const auto [p, t, d, v, schedule, sg, overlap] = GetParam();
  const std::int64_t B = 8, b = 1;
  const int steps = 3;
  GptConfig c = engine_config(/*layers=*/static_cast<std::int64_t>(p * v));
  const auto serial = serial_trajectory(c, B, b, steps, EngineOptions::Opt::kSgd);
  DataSetup ds(c);

  dist::World world(p * t * d);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = p;
    options.parallel.t = t;
    options.parallel.d = d;
    options.parallel.v = v;
    options.parallel.b = b;
    options.parallel.schedule = schedule;
    options.parallel.recompute = false;
    options.parallel.scatter_gather = sg;
    options.overlap_grad_reduce = overlap;
    options.global_batch = B;
    options.optimizer = EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.1f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, B, b, d,
                               engine.groups().coord().data, /*seed=*/88);
    for (int s = 0; s < steps; ++s) {
      auto mbs = loader.next_batch(s);
      const float loss = engine.train_step(mbs);
      // Every rank reports the same global loss, equal to serial.
      EXPECT_NEAR(loss, serial[static_cast<std::size_t>(s)], 2e-3f)
          << "step " << s << " rank " << comm.rank();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, EngineEquivalenceTest,
    ::testing::Values(
        // Pure pipeline.
        Grid{2, 1, 1, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{4, 1, 1, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{2, 1, 1, 1, pipeline::ScheduleType::kGPipe, false, true},
        // Pure tensor.
        Grid{1, 2, 1, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{1, 4, 1, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        // Pure data.
        Grid{1, 1, 2, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{1, 1, 4, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{1, 1, 2, 1, pipeline::ScheduleType::kOneFOneB, false, false},
        // Every pair.
        Grid{2, 2, 1, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{2, 2, 1, 1, pipeline::ScheduleType::kOneFOneB, true, true},
        Grid{2, 1, 2, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{2, 1, 2, 1, pipeline::ScheduleType::kOneFOneB, false, false},
        Grid{1, 2, 2, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        // Full PTD-P, all four comm-plane modes (acceptance grid).
        Grid{2, 2, 2, 1, pipeline::ScheduleType::kOneFOneB, false, false},
        Grid{2, 2, 2, 1, pipeline::ScheduleType::kOneFOneB, false, true},
        Grid{2, 2, 2, 1, pipeline::ScheduleType::kOneFOneB, true, false},
        Grid{2, 2, 2, 1, pipeline::ScheduleType::kOneFOneB, true, true},
        Grid{2, 2, 2, 1, pipeline::ScheduleType::kGPipe, true, true},
        // Interleaved schedules (tied-embedding defer path exercises here).
        Grid{2, 1, 1, 2, pipeline::ScheduleType::kInterleaved, false, true},
        Grid{2, 2, 1, 2, pipeline::ScheduleType::kInterleaved, true, true},
        Grid{2, 1, 2, 2, pipeline::ScheduleType::kInterleaved, false, true},
        Grid{2, 1, 2, 2, pipeline::ScheduleType::kInterleaved, false, false},
        Grid{2, 2, 2, 2, pipeline::ScheduleType::kInterleaved, true, true}));

TEST(PtdpEngine, EquivalenceHoldsWithDropoutAndRecompute) {
  // Dropout masks are keyed by (tag, layer, global head), so even a
  // (p=2, t=2) run with recomputation must match serial exactly.
  const std::int64_t B = 4, b = 1;
  const int steps = 2;
  GptConfig c = engine_config(2);
  c.dropout = 0.1f;
  const auto serial = serial_trajectory(c, B, b, steps, EngineOptions::Opt::kSgd);
  DataSetup ds(c);

  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.t = 2;
    options.parallel.b = b;
    options.parallel.recompute = true;
    options.global_batch = B;
    options.sgd.lr = 0.1f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, B, b, 1, 0, 88);
    for (int s = 0; s < steps; ++s) {
      auto mbs = loader.next_batch(s);
      EXPECT_NEAR(engine.train_step(mbs), serial[static_cast<std::size_t>(s)], 2e-3f);
    }
  });
}

TEST(PtdpEngine, AdamTrajectoryMatchesSerial) {
  const std::int64_t B = 4, b = 1;
  const int steps = 3;
  GptConfig c = engine_config(2);
  const auto serial = serial_trajectory(c, B, b, steps, EngineOptions::Opt::kAdam);
  DataSetup ds(c);

  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.d = 2;
    options.parallel.b = b;
    options.parallel.recompute = false;
    options.global_batch = B;
    options.optimizer = EngineOptions::Opt::kAdam;
    options.adam.lr = 1e-3f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, B, b, 2, engine.groups().coord().data, 88);
    for (int s = 0; s < steps; ++s) {
      auto mbs = loader.next_batch(s);
      EXPECT_NEAR(engine.train_step(mbs), serial[static_cast<std::size_t>(s)], 2e-3f);
    }
  });
}

TEST(PtdpEngine, LossDecreasesOnSyntheticCorpus) {
  GptConfig c = engine_config(2);
  DataSetup ds(c);
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.b = 2;
    options.parallel.recompute = false;
    options.global_batch = 8;
    options.optimizer = EngineOptions::Opt::kAdam;
    options.adam.lr = 3e-3f;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, 8, 2, 1, 0, 11);
    float first = 0.f, last = 0.f;
    const int steps = 25;
    for (int s = 0; s < steps; ++s) {
      const float loss = engine.train_step(loader.next_batch(s));
      if (s == 0) first = loss;
      last = loss;
    }
    // Initial loss ~= ln(V); bigram structure is learnable.
    EXPECT_NEAR(first, std::log(static_cast<float>(c.vocab)), 0.7f);
    EXPECT_LT(last, first - 0.3f);
  });
}

TEST(PtdpEngine, CheckpointResumeIsExact) {
  GptConfig c = engine_config(2);
  DataSetup ds(c);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ptdp_engine_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::vector<float> continued, resumed;
  dist::World world(2);
  // Train 2 steps, checkpoint, then 2 more.
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.optimizer = EngineOptions::Opt::kAdam;
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, 4, 1, 1, 0, 33);
    engine.train_step(loader.next_batch(0));
    engine.train_step(loader.next_batch(1));
    engine.save_checkpoint(dir.string(), /*step=*/2);
    for (int s = 2; s < 4; ++s) {
      const float loss = engine.train_step(loader.next_batch(s));
      if (comm.rank() == 0) continued.push_back(loss);
    }
  });
  // Fresh engine, load, continue — must reproduce the same losses.
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.optimizer = EngineOptions::Opt::kAdam;
    PtdpEngine engine(comm, options);
    const std::uint64_t step = engine.load_checkpoint(dir.string());
    EXPECT_EQ(step, 2u);
    data::ShardedLoader loader(ds.dataset, 4, 1, 1, 0, 33);
    for (int s = 2; s < 4; ++s) {
      const float loss = engine.train_step(loader.next_batch(s));
      if (comm.rank() == 0) resumed.push_back(loss);
    }
  });
  std::filesystem::remove_all(dir);
  ASSERT_EQ(continued.size(), resumed.size());
  for (std::size_t i = 0; i < continued.size(); ++i) {
    // Checkpoints carry weights, Adam moments, and the bias-correction
    // step counter, so the resumed trajectory is exact.
    EXPECT_FLOAT_EQ(continued[i], resumed[i]) << "post-resume step " << i;
  }
}

TEST(PtdpEngine, MixedPrecisionTrainsCloseToFp32) {
  GptConfig c = engine_config(2);
  const auto fp32 = serial_trajectory(c, 4, 1, 3, EngineOptions::Opt::kSgd);
  c.dtype = tensor::DType::kBf16;
  const auto bf16 = serial_trajectory(c, 4, 1, 3, EngineOptions::Opt::kSgd);
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_NEAR(bf16[i], fp32[i], 0.05f) << "step " << i;
  }
}

TEST(PtdpEngine, GradClipReportsNorm) {
  GptConfig c = engine_config(2);
  DataSetup ds(c);
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    EngineOptions options;
    options.model = c;
    options.parallel.p = 2;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.grad_clip = 1e-6;  // absurdly tight: everything clips
    PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, 4, 1, 1, 0, 3);
    engine.train_step(loader.next_batch(0));
    EXPECT_GT(engine.last_grad_norm(), 1e-6);
  });
}

TEST(PtdpEngine, RejectsInvalidConfigurations) {
  GptConfig c = engine_config(3);  // 3 layers can't split over p=2
  dist::World world(2);
  EXPECT_THROW(world.run([&](dist::Comm& comm) {
                 EngineOptions options;
                 options.model = c;
                 options.parallel.p = 2;
                 options.global_batch = 4;
                 PtdpEngine engine(comm, options);
               }),
               dist::RankFailure);
}

}  // namespace
}  // namespace ptdp::core
