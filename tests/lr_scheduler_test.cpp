// LR schedule tests: warmup ramp, cosine decay, floor behavior, and the
// engine integration (per-step lr application, resume continuity, and
// set_lr propagation through the mixed-precision optimizer).

#include <gtest/gtest.h>

#include <filesystem>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/optim/lr_scheduler.hpp"

namespace ptdp::optim {
namespace {

TEST(LrSchedule, WarmupIsLinear) {
  LrSchedule sched({.peak_lr = 1.0f, .min_lr = 0.0f, .warmup_steps = 10,
                    .decay_steps = 100});
  EXPECT_FLOAT_EQ(sched.at(0), 0.1f);
  EXPECT_FLOAT_EQ(sched.at(4), 0.5f);
  EXPECT_FLOAT_EQ(sched.at(9), 1.0f);
}

TEST(LrSchedule, CosineDecayHitsHalfwayAndFloor) {
  LrSchedule sched({.peak_lr = 1.0f, .min_lr = 0.1f, .warmup_steps = 0,
                    .decay_steps = 100});
  EXPECT_FLOAT_EQ(sched.at(0), 1.0f);
  // Halfway through decay the cosine factor is 0.5.
  EXPECT_NEAR(sched.at(50), 0.1f + 0.9f * 0.5f, 1e-4f);
  EXPECT_FLOAT_EQ(sched.at(100), 0.1f);
  EXPECT_FLOAT_EQ(sched.at(100000), 0.1f);  // constant after horizon
}

TEST(LrSchedule, MonotoneAfterWarmup) {
  LrSchedule sched({.peak_lr = 3e-4f, .min_lr = 3e-5f, .warmup_steps = 20,
                    .decay_steps = 500});
  for (int s = 20; s < 499; ++s) {
    EXPECT_GE(sched.at(s), sched.at(s + 1)) << "step " << s;
  }
}

TEST(LrSchedule, RejectsBadOptions) {
  EXPECT_THROW(LrSchedule({.peak_lr = 1.0f, .min_lr = 0.0f, .warmup_steps = 50,
                           .decay_steps = 50}),
               CheckError);
  EXPECT_THROW(LrSchedule({.peak_lr = 0.0f}), CheckError);
}

TEST(LrSchedule, SetLrPropagatesThroughWrappers) {
  model::Param p{"w", tensor::Tensor({2}), tensor::Tensor({2}), false};
  Adam mixed(model::ParamRefs{&p}, AdamOptions{.lr = 1.f}, LossScalerOptions{});
  mixed.set_lr(0.25f);
  EXPECT_FLOAT_EQ(mixed.lr(), 0.25f);
}

TEST(LrSchedule, EngineAppliesSchedulePerStepAndResumes) {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 8;
  c.seed = 1;
  data::SyntheticCorpus corpus(c.vocab, 1);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);

  core::EngineOptions options;
  options.model = c;
  options.parallel.b = 2;
  options.parallel.recompute = false;
  options.global_batch = 4;
  options.optimizer = core::EngineOptions::Opt::kAdam;
  options.lr_schedule = LrScheduleOptions{.peak_lr = 1e-2f, .min_lr = 1e-4f,
                                          .warmup_steps = 2, .decay_steps = 10};
  const LrSchedule reference(*options.lr_schedule);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("ptdp_lr_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  dist::World world(1);
  world.run([&](dist::Comm& comm) {
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, 4, 2, 1, 0, 4);
    for (int s = 0; s < 4; ++s) {
      engine.train_step(loader.next_batch(s));
      EXPECT_FLOAT_EQ(engine.last_stats().lr, reference.at(s)) << "step " << s;
      EXPECT_EQ(engine.last_stats().step, s);
      EXPECT_GT(engine.last_stats().tokens_per_second, 0.0);
      EXPECT_EQ(engine.last_stats().tokens, 4 * c.seq);
    }
    engine.save_checkpoint(dir.string(), 4);
  });
  // Resume: the schedule continues from the checkpointed step, not step 0.
  world.run([&](dist::Comm& comm) {
    core::PtdpEngine engine(comm, options);
    EXPECT_EQ(engine.load_checkpoint(dir.string()), 4u);
    data::ShardedLoader loader(dataset, 4, 2, 1, 0, 4);
    engine.train_step(loader.next_batch(4));
    EXPECT_FLOAT_EQ(engine.last_stats().lr, reference.at(4));
    EXPECT_EQ(engine.last_stats().step, 4);
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ptdp::optim
