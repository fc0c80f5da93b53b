// Optimizer tests: SGD/Adam update math, distributed grad-norm accounting
// (replicated params counted once), bf16 rounding, the dynamic loss
// scaler's backoff/growth behavior, mixed-precision Sgd/Adam, and the
// bitwise oracle against the four-pass reference step.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "optim_reference.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/optim/optimizer.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::optim {
namespace {

using model::Param;
using tensor::Tensor;

Param make_param(const std::string& name, std::vector<float> w, std::vector<float> g,
                 bool replicated = false) {
  const auto n = static_cast<std::int64_t>(w.size());
  Param p{name, Tensor::from_vector({n}, std::move(w)),
          Tensor::from_vector({n}, std::move(g)), replicated};
  return p;
}

TEST(Sgd, PlainUpdateSubtractsScaledGrad) {
  Param p = make_param("w", {1.0f, 2.0f}, {0.5f, -0.5f});
  Sgd sgd({&p}, SgdOptions{.lr = 0.1f});
  sgd.step();
  EXPECT_FLOAT_EQ(p.value.at({0}), 0.95f);
  EXPECT_FLOAT_EQ(p.value.at({1}), 2.05f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Param p = make_param("w", {0.0f}, {1.0f});
  Sgd sgd({&p}, SgdOptions{.lr = 1.0f, .momentum = 0.9f});
  sgd.step();  // v = 1, w = -1
  EXPECT_FLOAT_EQ(p.value.at({0}), -1.0f);
  sgd.step();  // v = 0.9 + 1 = 1.9, w = -2.9
  EXPECT_FLOAT_EQ(p.value.at({0}), -2.9f);
}

TEST(Sgd, WeightDecayAddsL2Term) {
  Param p = make_param("w", {2.0f}, {0.0f});
  Sgd sgd({&p}, SgdOptions{.lr = 0.5f, .weight_decay = 0.1f});
  sgd.step();  // grad_eff = 0.2, w = 2 - 0.1 = 1.9
  EXPECT_FLOAT_EQ(p.value.at({0}), 1.9f);
}

TEST(Sgd, StateTensorsExposeVelocityOnlyWithMomentum) {
  Param p = make_param("w", {0.0f}, {0.0f});
  Sgd plain({&p}, SgdOptions{});
  EXPECT_TRUE(plain.state_tensors().empty());
  Sgd with_momentum({&p}, SgdOptions{.momentum = 0.9f});
  EXPECT_EQ(with_momentum.state_tensors().size(), 1u);
}

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Param p = make_param("w", {0.0f}, {3.0f});
  Adam adam({&p}, AdamOptions{.lr = 0.01f});
  adam.step();
  EXPECT_NEAR(p.value.at({0}), -0.01f, 1e-5f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 — grad = 2(w - 3).
  Param p = make_param("w", {0.0f}, {0.0f});
  Adam adam({&p}, AdamOptions{.lr = 0.1f});
  for (int i = 0; i < 400; ++i) {
    p.grad.at({0}) = 2.0f * (p.value.at({0}) - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(p.value.at({0}), 3.0f, 0.05f);
}

TEST(Adam, StateTensorsHoldMomentsAndStepCount) {
  Param p = make_param("w", {0.0f}, {0.0f});
  Adam adam({&p}, AdamOptions{});
  auto state = adam.state_tensors();
  ASSERT_EQ(state.size(), 3u);
  EXPECT_EQ(state[0].first, "w.adam_m");
  EXPECT_EQ(state[1].first, "w.adam_v");
  EXPECT_EQ(state[2].first, "adam.step_count");
  adam.step();
  adam.step();
  EXPECT_EQ(adam.steps_taken(), 2);
}

TEST(GradNorm, SerialMatchesManualNorm) {
  Param a = make_param("a", {0, 0}, {3.0f, 0.0f});
  Param b = make_param("b", {0}, {4.0f});
  model::ParamRefs refs{&a, &b};
  EXPECT_NEAR(global_grad_norm(whole_segments(refs), nullptr, nullptr), 5.0, 1e-6);
}

TEST(GradNorm, ReplicatedParamsCountedOnceAcrossTensorRanks) {
  // Two tensor ranks each hold: a sharded grad of 3.0 and a replicated grad
  // of 4.0. True global norm: sqrt(3^2 + 3^2 + 4^2) = sqrt(34).
  dist::World world(2);
  world.run([](dist::Comm& comm) {
    Param sharded = make_param("s", {0}, {3.0f});
    Param replicated = make_param("r", {0}, {4.0f}, /*replicated=*/true);
    model::ParamRefs refs{&sharded, &replicated};
    const double norm = global_grad_norm(whole_segments(refs), &comm, nullptr);
    EXPECT_NEAR(norm, std::sqrt(34.0), 1e-4);
  });
}

TEST(GradNorm, ClipScalesGradsDownToMaxNorm) {
  Param a = make_param("a", {0, 0}, {3.0f, 4.0f});
  model::ParamRefs refs{&a};
  const double pre = clip_grad_norm(whole_segments(refs), 1.0, nullptr, nullptr);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(global_grad_norm(whole_segments(refs), nullptr, nullptr), 1.0, 1e-5);
}

TEST(GradNorm, NoClipBelowThreshold) {
  Param a = make_param("a", {0}, {0.5f});
  model::ParamRefs refs{&a};
  clip_grad_norm(whole_segments(refs), 1.0, nullptr, nullptr);
  EXPECT_FLOAT_EQ(a.grad.at({0}), 0.5f);
}

TEST(Bf16, RoundingMatchesKnownValues) {
  EXPECT_EQ(bf16_round(1.0f), 1.0f);
  EXPECT_EQ(bf16_round(0.0f), 0.0f);
  // 1.00390625 = 1 + 2^-8 rounds to nearest-even bf16 (1.0).
  EXPECT_EQ(bf16_round(1.00390625f), 1.0f);
  // Values already representable survive exactly.
  EXPECT_EQ(bf16_round(1.5f), 1.5f);
  EXPECT_EQ(bf16_round(-2.25f), -2.25f);
}

TEST(Bf16, RelativeErrorBounded) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.next_gaussian(0.0, 10.0));
    const float r = bf16_round(v);
    if (v != 0.0f) {
      EXPECT_LE(std::abs(r - v) / std::abs(v), 1.0f / 128.0f) << v;
    }
  }
}

TEST(LossScaler, BacksOffOnOverflowGrowsAfterInterval) {
  DynamicLossScaler scaler(LossScalerOptions{.initial_scale = 8.0f,
                                             .growth_factor = 2.0f,
                                             .backoff_factor = 0.5f,
                                             .growth_interval = 2});
  EXPECT_FALSE(scaler.update(/*found_overflow=*/true));
  EXPECT_FLOAT_EQ(scaler.scale(), 4.0f);
  EXPECT_TRUE(scaler.update(false));
  EXPECT_FLOAT_EQ(scaler.scale(), 4.0f);
  EXPECT_TRUE(scaler.update(false));  // second good step -> grow
  EXPECT_FLOAT_EQ(scaler.scale(), 8.0f);
}

TEST(LossScaler, RespectsMinScale) {
  DynamicLossScaler scaler(
      LossScalerOptions{.initial_scale = 2.0f, .backoff_factor = 0.5f,
                        .min_scale = 1.0f});
  scaler.update(true);
  scaler.update(true);
  scaler.update(true);
  EXPECT_FLOAT_EQ(scaler.scale(), 1.0f);
}

TEST(MixedPrecision, DetectsOverflow) {
  Param p = make_param("w", {0.0f}, {std::numeric_limits<float>::infinity()});
  model::ParamRefs refs{&p};
  EXPECT_TRUE(grads_have_overflow(whole_segments(refs)));
  p.grad.at({0}) = std::nanf("");
  EXPECT_TRUE(grads_have_overflow(whole_segments(refs)));
  p.grad.at({0}) = 1e30f;
  EXPECT_FALSE(grads_have_overflow(whole_segments(refs)));
}

TEST(MixedPrecision, SkipsStepOnOverflowAndBacksOff) {
  Param p = make_param("w", {1.0f}, {std::numeric_limits<float>::infinity()});
  Sgd mixed({&p}, SgdOptions{.lr = 0.1f}, LossScalerOptions{.initial_scale = 4.0f});
  const float before = p.value.at({0});
  mixed.step();
  EXPECT_EQ(p.value.at({0}), before);  // skipped
  EXPECT_EQ(mixed.skipped_steps(), 1);
  EXPECT_FLOAT_EQ(mixed.loss_scale(), 2.0f);
}

TEST(MixedPrecision, UnscalesGradsBeforeStepping) {
  // grad was scaled by 4; effective update must use grad/4.
  Param p = make_param("w", {1.0f}, {4.0f});
  Sgd mixed({&p}, SgdOptions{.lr = 1.0f},
            LossScalerOptions{.initial_scale = 4.0f, .growth_interval = 1000});
  mixed.step();
  EXPECT_NEAR(p.value.at({0}), 0.0f, 1e-2f);  // 1 - 1*1 (bf16-rounded)
}

TEST(MixedPrecision, MasterWeightsRetainPrecisionAcrossSteps) {
  // Updates smaller than bf16 resolution must still accumulate in the
  // master copy — the reason fp32 masters exist.
  Param p = make_param("w", {256.0f}, {0.0f});
  Sgd mixed({&p}, SgdOptions{.lr = 1.0f},
            LossScalerOptions{.initial_scale = 1.0f, .growth_interval = 1 << 30});
  // Each step subtracts 0.25 — representable in fp32 master, invisible at
  // bf16 granularity near 256 until accumulated.
  for (int i = 0; i < 8; ++i) {
    p.grad.fill(0.25f);
    mixed.step();
  }
  // Master accumulated 2.0 total; working copy reflects it after rounding.
  EXPECT_NEAR(p.value.at({0}), 254.0f, 1.0f);
}

TEST(MixedPrecision, StateIncludesMasters) {
  Param p = make_param("w", {1.0f}, {0.0f});
  Adam mixed({&p}, AdamOptions{}, LossScalerOptions{});
  auto state = mixed.state_tensors();
  // adam_m, adam_v, step_count, fp32_master, then the scaler state.
  ASSERT_EQ(state.size(), 5u);
  EXPECT_EQ(state[3].first, "w.fp32_master");
  EXPECT_EQ(state[4].first, "loss_scaler.state");
}

TEST(MixedPrecision, ScalerStateTensorRoundTrips) {
  // {scale, good steps, skipped steps} live in the checkpointed tensor, so
  // writing it (as a checkpoint load does) restores the schedule.
  DynamicLossScaler scaler(LossScalerOptions{.initial_scale = 8.0f,
                                             .growth_interval = 3});
  scaler.update(true);
  scaler.update(false);
  EXPECT_FLOAT_EQ(scaler.scale(), 4.0f);
  EXPECT_EQ(scaler.skipped_steps(), 1);
  DynamicLossScaler resumed(LossScalerOptions{.initial_scale = 8.0f,
                                              .growth_interval = 3});
  resumed.state().copy_from(scaler.state());
  EXPECT_FLOAT_EQ(resumed.scale(), 4.0f);
  EXPECT_EQ(resumed.skipped_steps(), 1);
  resumed.update(false);
  EXPECT_FLOAT_EQ(resumed.scale(), 4.0f);
  resumed.update(false);  // third good step since the overflow -> grow
  EXPECT_FLOAT_EQ(resumed.scale(), 8.0f);
}

// ---- bitwise oracle: fused step vs the four-pass reference -----------------

bool same_bits(const Tensor& a, const Tensor& b) {
  const auto ba = a.raw_bytes();
  const auto bb = b.raw_bytes();
  return a.dtype() == b.dtype() && a.same_shape(b) &&
         std::memcmp(ba.data(), bb.data(), ba.size()) == 0;
}

// A GEMM weight at `weight_dtype` and two f32-storage params (a LayerNorm-
// like vector and a bias): with kBf16, the mix a bf16 model trains.
std::vector<Param> oracle_params(tensor::DType weight_dtype) {
  Rng rng(2024);
  std::vector<Param> params;
  for (auto [name, n] : {std::pair{"fc.weight", 41}, {"ln.gamma", 17}, {"fc.bias", 9}}) {
    Param p;
    p.name = name;
    p.value = Tensor::randn({n}, rng);
    p.grad = Tensor::zeros({n});
    params.push_back(std::move(p));
  }
  params[0].value = params[0].value.to(weight_dtype);
  return params;
}

model::ParamRefs refs_of(std::vector<Param>& params) {
  model::ParamRefs refs;
  for (auto& p : params) refs.push_back(&p);
  return refs;
}

struct OracleRule {
  const char* name;
  reference::OptimizerStep::Rule rule;
};
// Prints the name only, so the parameterized test names are stable.
void PrintTo(const OracleRule& r, std::ostream* os) { *os << r.name; }

class OptimizerOracleTest
    : public ::testing::TestWithParam<std::tuple<OracleRule, bool>> {};

TEST_P(OptimizerOracleTest, MixedStepMatchesFourPassReferenceBitwise) {
  const auto& [oracle_rule, bf16_weight] = GetParam();
  const auto& rule = oracle_rule.rule;
  const tensor::DType weight_dtype =
      bf16_weight ? tensor::DType::kBf16 : tensor::DType::kF32;
  std::vector<Param> mine = oracle_params(weight_dtype);
  std::vector<Param> ref = oracle_params(weight_dtype);
  // growth_interval 2: the scale doubles on steps 1 and 3 (0-indexed) and
  // backs off on the overflow step 4, whose skip leaves weights untouched.
  const LossScalerOptions so{.initial_scale = 1024.0f, .growth_interval = 2};
  std::unique_ptr<Optimizer> opt;
  if (std::holds_alternative<SgdOptions>(rule)) {
    opt = std::make_unique<Sgd>(refs_of(mine), std::get<SgdOptions>(rule), so);
  } else {
    opt = std::make_unique<Adam>(refs_of(mine), std::get<AdamOptions>(rule), so);
  }
  reference::OptimizerStep oracle(refs_of(ref), rule, so);
  constexpr int kSteps = 7, kOverflowStep = 4;
  std::vector<float> scales;
  Rng grng(7);
  for (int s = 0; s < kSteps; ++s) {
    ASSERT_EQ(opt->loss_scale(), oracle.scale()) << "step " << s;
    scales.push_back(opt->loss_scale());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      // Grads as backward produces them: carrying the current loss scale.
      Tensor g = Tensor::randn(mine[i].grad.shape(), grng);
      tensor::scale_(g, opt->loss_scale());
      if (s == kOverflowStep && i == 1) g.data()[3] = std::numeric_limits<float>::infinity();
      mine[i].grad.copy_from(g);
      ref[i].grad.copy_from(g);
    }
    opt->step();
    oracle.step();
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_TRUE(same_bits(mine[i].value, ref[i].value))
          << mine[i].name << " step " << s;
    }
    const NamedState a = opt->state_tensors();
    const NamedState b = oracle.state_tensors();
    ASSERT_EQ(a.size(), b.size() + 1) << "the scaler state comes last";
    for (std::size_t k = 0; k < b.size(); ++k) {
      EXPECT_EQ(a[k].first, b[k].first);
      EXPECT_TRUE(same_bits(*a[k].second, *b[k].second))
          << a[k].first << " step " << s;
    }
    EXPECT_EQ(opt->skipped_steps(), oracle.skipped_steps());
  }
  // The run covered growth and the overflow back-off.
  EXPECT_EQ(opt->skipped_steps(), 1);
  EXPECT_EQ(scales[2], 2.0f * scales[1]);
  EXPECT_EQ(opt->loss_scale(), oracle.scale());
  EXPECT_LT(scales[kOverflowStep + 1], scales[kOverflowStep]);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, OptimizerOracleTest,
    ::testing::Combine(
        ::testing::Values(
            OracleRule{"SgdPlain", SgdOptions{.lr = 0.05f}},
            OracleRule{"SgdMomentumDecay",
                       SgdOptions{.lr = 0.05f, .momentum = 0.9f, .weight_decay = 0.01f}},
            OracleRule{"AdamDecay", AdamOptions{.lr = 1e-2f, .weight_decay = 0.01f}}),
        ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_Bf16Weight" : "_F32Weight");
    });

TEST(OptimizerOracle, PlainStepMatchesReferenceBitwise) {
  // Without a scaler the fused body multiplies each grad by 1 — exact — so
  // plain f32 Sgd/Adam keep their pre-fusion bits.
  for (const reference::OptimizerStep::Rule& rule :
       {reference::OptimizerStep::Rule{
            SgdOptions{.lr = 0.05f, .momentum = 0.9f, .weight_decay = 0.01f}},
        reference::OptimizerStep::Rule{AdamOptions{.lr = 1e-2f, .weight_decay = 0.01f}}}) {
    std::vector<Param> mine = oracle_params(tensor::DType::kF32);
    std::vector<Param> ref = oracle_params(tensor::DType::kF32);
    std::unique_ptr<Optimizer> opt;
    if (std::holds_alternative<SgdOptions>(rule)) {
      opt = std::make_unique<Sgd>(refs_of(mine), std::get<SgdOptions>(rule));
    } else {
      opt = std::make_unique<Adam>(refs_of(mine), std::get<AdamOptions>(rule));
    }
    reference::OptimizerStep oracle(refs_of(ref), rule, std::nullopt);
    Rng grng(3);
    for (int s = 0; s < 4; ++s) {
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const Tensor g = Tensor::randn(mine[i].grad.shape(), grng);
        mine[i].grad.copy_from(g);
        ref[i].grad.copy_from(g);
      }
      opt->step();
      oracle.step();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_TRUE(same_bits(mine[i].value, ref[i].value)) << mine[i].name;
      }
    }
  }
}

}  // namespace
}  // namespace ptdp::optim
