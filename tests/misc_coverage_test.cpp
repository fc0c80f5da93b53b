// Coverage for the remaining small surfaces: the leveled logger, error
// paths in tensor/data/planner APIs, and ParallelConfig validation
// messages — the corners the focused suites don't reach.

#include <gtest/gtest.h>

#include <sstream>

#include "ptdp/core/planner.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/runtime/log.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp {
namespace {

class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

TEST(Log, RespectsLevelThreshold) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  {
    CerrCapture cap;
    PTDP_LOG_DEBUG << "hidden";
    PTDP_LOG_INFO << "also hidden";
    PTDP_LOG_WARN << "visible " << 42;
    EXPECT_EQ(cap.text().find("hidden"), std::string::npos);
    EXPECT_NE(cap.text().find("visible 42"), std::string::npos);
    EXPECT_NE(cap.text().find("[warn]"), std::string::npos);
  }
  set_log_level(LogLevel::kOff);
  {
    CerrCapture cap;
    PTDP_LOG_ERROR << "silenced";
    EXPECT_TRUE(cap.text().empty());
  }
  set_log_level(saved);
}

TEST(Log, DebugLevelShowsEverything) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kDebug);
  CerrCapture cap;
  PTDP_LOG_DEBUG << "d";
  PTDP_LOG_INFO << "i";
  PTDP_LOG_ERROR << "e";
  EXPECT_NE(cap.text().find("[debug]"), std::string::npos);
  EXPECT_NE(cap.text().find("[info]"), std::string::npos);
  EXPECT_NE(cap.text().find("[error]"), std::string::npos);
  set_log_level(saved);
}

TEST(TensorErrors, ConcatRejectsMismatchedShapes) {
  tensor::Tensor a({2, 3}), b({2, 4});
  EXPECT_THROW(tensor::concat({a, b}, 0), CheckError);  // dim 1 differs
  EXPECT_NO_THROW(tensor::concat({a, b}, 1));
  EXPECT_THROW(tensor::concat({}, 0), CheckError);
}

TEST(TensorErrors, BinaryOpsRejectMismatchedShapes) {
  tensor::Tensor a({2, 3}), b({3, 2});
  EXPECT_THROW(tensor::add(a, b), CheckError);
  EXPECT_THROW(tensor::mul(a, b), CheckError);
  tensor::Tensor c({2, 3});
  EXPECT_THROW(tensor::add_(c, b), CheckError);
}

TEST(TensorErrors, DropoutRejectsInvalidProbability) {
  tensor::Tensor x({4});
  const Rng rng(1);
  EXPECT_THROW(tensor::dropout(x, 1.0f, rng), CheckError);
  EXPECT_THROW(tensor::dropout(x, -0.1f, rng), CheckError);
}

TEST(TensorErrors, UndefinedTensorDataThrows) {
  tensor::Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.data(), CheckError);
}

TEST(DataErrors, MlmRejectsInvalidOptions) {
  model::Microbatch mb;
  mb.s = 4;
  mb.b = 1;
  mb.tokens = {1, 2, 3, 4};
  EXPECT_THROW(data::apply_mlm_masking(mb, 32, {.mask_prob = 0.0f}, 1), CheckError);
  EXPECT_THROW(data::apply_mlm_masking(mb, 32, {.mask_prob = 0.15f,
                                                .mask_token = 99},
                                       1),
               CheckError);
}

TEST(DataErrors, MlmAlwaysSelectsAtLeastOnePosition) {
  // Tiny microbatch + tiny mask_prob: the degenerate-draw fallback fires.
  model::Microbatch mb;
  mb.s = 2;
  mb.b = 1;
  mb.tag = 3;
  mb.tokens = {1, 2};
  data::apply_mlm_masking(mb, 32, {.mask_prob = 0.0001f}, 1);
  float wsum = 0;
  for (float w : mb.loss_weights) wsum += w;
  EXPECT_GE(wsum, 1.0f);
}

TEST(ParallelConfig, ValidationCatchesEachConstraint) {
  model::GptConfig m;
  m.num_layers = 4;
  m.hidden = 16;
  m.heads = 4;
  m.vocab = 32;
  m.seq = 8;

  core::ParallelConfig ok;
  EXPECT_NO_THROW(ok.validate(m, 8));

  core::ParallelConfig bad_batch;
  bad_batch.b = 3;
  EXPECT_THROW(bad_batch.validate(m, 8), CheckError);  // 8 % 3 != 0

  core::ParallelConfig bad_layers;
  bad_layers.p = 3;
  EXPECT_THROW(bad_layers.validate(m, 9), CheckError);  // 4 layers % 3

  core::ParallelConfig bad_heads;
  bad_heads.t = 8;
  EXPECT_THROW(bad_heads.validate(m, 8), CheckError);  // 4 heads % 8

  core::ParallelConfig bad_inter;
  bad_inter.p = 2;
  bad_inter.v = 2;
  bad_inter.schedule = pipeline::ScheduleType::kInterleaved;
  bad_inter.b = 1;
  // m = 3 microbatches is not a multiple of p = 2.
  EXPECT_THROW(bad_inter.validate(m, 3), CheckError);
  EXPECT_NO_THROW(bad_inter.validate(m, 4));

  core::ParallelConfig stray_v;
  stray_v.v = 2;  // v > 1 without the interleaved schedule
  EXPECT_THROW(stray_v.validate(m, 8), CheckError);
}

TEST(ParallelConfig, StrIsHumanReadable) {
  core::ParallelConfig cfg;
  cfg.p = 2;
  cfg.t = 4;
  cfg.d = 8;
  cfg.b = 2;
  cfg.scatter_gather = true;
  const std::string s = cfg.str();
  EXPECT_NE(s.find("p=2"), std::string::npos);
  EXPECT_NE(s.find("t=4"), std::string::npos);
  EXPECT_NE(s.find("d=8"), std::string::npos);
  EXPECT_NE(s.find("s/g"), std::string::npos);
}

TEST(Planner, InterleavingCanBeDisabled) {
  core::PlannerInput input;
  input.model.num_layers = 48;
  input.model.hidden = 8192;
  input.model.heads = 64;
  input.model.vocab = 51200;
  input.model.seq = 2048;
  input.n_gpus = 512;
  input.global_batch = 1536;
  input.allow_interleaving = false;
  const auto plan = core::plan_configuration(input);
  for (const auto& cand : plan.feasible) {
    EXPECT_EQ(cand.config.v, 1);
    EXPECT_NE(cand.config.schedule, pipeline::ScheduleType::kInterleaved);
  }
}

TEST(GptConfig, DerivedQuantities) {
  model::GptConfig c;
  c.hidden = 64;
  c.heads = 8;
  EXPECT_EQ(c.head_dim(), 8);
  EXPECT_EQ(c.ffn_hidden(), 256);
}

}  // namespace
}  // namespace ptdp
