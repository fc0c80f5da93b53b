// The sharded data-parallel step (ZeRO-1/2, DESIGN.md §9): comm::GradReducer
// reduce-scatters the grads, a sharded optim::Sgd / optim::Adam steps only
// this rank's owned segments and all-gathers the updated weights. The
// oracle is the replicated step it replaced — Comm::all_reduce over the
// same buckets, x1/d, then reference::OptimizerStep over full params on
// every rank — and the two must agree bit for bit: weights, gathered state,
// loss scale and skipped steps. Also here: every rank of the world agrees
// on skipping an overflowing step, and a rank holds ~1/d of the state.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "optim_reference.hpp"
#include "ptdp/comm/grad_reducer.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/optim/optimizer.hpp"

namespace ptdp::optim {
namespace {

using model::Param;
using tensor::DType;
using tensor::Tensor;

// Buckets of at most 30 elements over params of 41, 17 and 9 elements give
// buckets of 41 and 26: neither divides by d = 2..5, and owner boundaries
// fall inside params.
constexpr std::int64_t kBucketElems = 30;

// A GEMM weight at `weight_dtype` and two f32-storage params: with kBf16,
// the mix a bf16 model trains.
std::vector<Param> make_params(DType weight_dtype) {
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

bool same_bits(const Tensor& a, const Tensor& b) {
  const auto ba = a.raw_bytes();
  const auto bb = b.raw_bytes();
  return a.dtype() == b.dtype() && a.same_shape(b) &&
         std::memcmp(ba.data(), bb.data(), ba.size()) == 0;
}

std::unique_ptr<ElementwiseOptimizer> make_optimizer(
    const reference::OptimizerStep::Rule& rule, model::ParamRefs refs,
    std::optional<LossScalerOptions> scaler, StepGroup group) {
  if (std::holds_alternative<SgdOptions>(rule)) {
    return std::make_unique<Sgd>(std::move(refs), std::get<SgdOptions>(rule), scaler,
                                 std::move(group));
  }
  return std::make_unique<Adam>(std::move(refs), std::get<AdamOptions>(rule), scaler,
                                std::move(group));
}

// Runs 7 steps of the sharded step and of the replicated oracle on d ranks
// with per-rank grads. A bf16 model gets masters and loss scaling; its
// scale grows on steps 1 and 3 (growth_interval 2), and on step 4 only
// rank 0's grads hold an inf, which every rank must skip.
void expect_sharded_matches_replicated(const reference::OptimizerStep::Rule& rule,
                                       DType weight_dtype, int d) {
  const bool mixed = weight_dtype == DType::kBf16;
  std::optional<LossScalerOptions> so;
  if (mixed) so = LossScalerOptions{.initial_scale = 1024.0f, .growth_interval = 2};
  constexpr int kSteps = 7, kOverflowStep = 4;
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    std::vector<Param> mine = make_params(weight_dtype);
    std::vector<Param> ref = make_params(weight_dtype);
    comm::GradReducerOptions ro;
    ro.bucket_elems = kBucketElems;
    comm::GradReducer reducer({refs_of(mine)}, comm, ro);
    auto opt = make_optimizer(rule, refs_of(mine), so, StepGroup{comm, &reducer});
    reference::OptimizerStep oracle(refs_of(ref), rule, so);
    Rng grng(7, substream(1, static_cast<std::uint64_t>(comm.rank())));
    std::vector<float> scales;
    for (int s = 0; s < kSteps; ++s) {
      ASSERT_EQ(opt->loss_scale(), oracle.scale()) << "step " << s;
      scales.push_back(opt->loss_scale());
      for (std::size_t i = 0; i < mine.size(); ++i) {
        Tensor g = Tensor::randn(mine[i].grad.shape(), grng);
        for (float& v : g.data()) v *= opt->loss_scale();
        if (mixed && s == kOverflowStep && comm.rank() == 0 && i == 1) {
          g.data()[3] = std::numeric_limits<float>::infinity();
        }
        mine[i].grad.copy_from(g);
        ref[i].grad.copy_from(g);
      }
      reducer.finish();
      opt->step();
      reference::all_reduce_mean(refs_of(ref), comm, kBucketElems);
      oracle.step();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_TRUE(same_bits(mine[i].value, ref[i].value))
            << mine[i].name << " step " << s << " rank " << comm.rank();
      }
      const NamedState a = opt->state_tensors();
      const NamedState b = oracle.state_tensors();
      ASSERT_EQ(a.size(), b.size() + (mixed ? 1 : 0)) << "the scaler state comes last";
      for (std::size_t k = 0; k < b.size(); ++k) {
        EXPECT_EQ(a[k].first, b[k].first);
        EXPECT_TRUE(same_bits(*a[k].second, *b[k].second))
            << a[k].first << " step " << s << " rank " << comm.rank();
      }
      opt->commit_state();
      EXPECT_EQ(opt->skipped_steps(), oracle.skipped_steps());
    }
    if (mixed) {
      // The run covered growth and the one-rank overflow back-off.
      EXPECT_EQ(opt->skipped_steps(), 1);
      EXPECT_EQ(scales[2], 2.0f * scales[1]);
      EXPECT_LT(scales[kOverflowStep + 1], scales[kOverflowStep]);
    }
  });
}

class ZeroEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ZeroEquivalenceTest, MatchesReplicatedAdamOverSteps) {
  const int d = GetParam();
  for (const DType dtype : {DType::kF32, DType::kBf16}) {
    SCOPED_TRACE(tensor::dtype_name(dtype));
    expect_sharded_matches_replicated(AdamOptions{.lr = 1e-2f, .weight_decay = 0.01f},
                                      dtype, d);
  }
}

INSTANTIATE_TEST_SUITE_P(DataParallelSizes, ZeroEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(ShardedStepOracle, SgdMomentumMatchesReplicatedBitwise) {
  for (const int d : {2, 4}) {
    for (const DType dtype : {DType::kF32, DType::kBf16}) {
      SCOPED_TRACE(std::string(tensor::dtype_name(dtype)) + " d=" + std::to_string(d));
      expect_sharded_matches_replicated(
          SgdOptions{.lr = 0.05f, .momentum = 0.9f, .weight_decay = 0.01f}, dtype, d);
    }
  }
}

TEST(ZeroShardedAdam, PaddingHandlesNonDivisibleTotals) {
  // Five owners: every bucket splits unevenly, some chunks one element
  // longer than others, and still bit for bit.
  for (const DType dtype : {DType::kF32, DType::kBf16}) {
    SCOPED_TRACE(tensor::dtype_name(dtype));
    expect_sharded_matches_replicated(AdamOptions{.lr = 0.05f}, dtype, 5);
  }
}

TEST(ZeroShardedAdam, ParamsStayReplicatedAfterStep) {
  // After the all-gather, every rank must hold identical full weights.
  const int d = 3;
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    std::vector<Param> params = make_params(DType::kF32);
    Rng grng(13, substream(1, static_cast<std::uint64_t>(comm.rank())));
    for (auto& p : params) p.grad = Tensor::randn(p.grad.shape(), grng);
    comm::GradReducerOptions ro;
    ro.bucket_elems = kBucketElems;
    comm::GradReducer reducer({refs_of(params)}, comm, ro);
    Adam adam(refs_of(params), AdamOptions{}, std::nullopt, StepGroup{comm, &reducer});
    reducer.finish();
    adam.step();
    for (auto& p : params) {
      for (std::int64_t i = 0; i < p.value.numel(); ++i) {
        const float v = p.value.data()[static_cast<std::size_t>(i)];
        const float mx = comm.all_reduce_scalar(v, dist::ReduceOp::kMax);
        const float mn = comm.all_reduce_scalar(v, dist::ReduceOp::kMin);
        ASSERT_EQ(mx, mn) << p.name << "[" << i << "] diverged across replicas";
      }
    }
  });
}

TEST(ZeroShardedAdam, StateShrinksWithShardCount) {
  // 67 elements in 2 buckets: a rank owns at most ceil(len/d) of each, and
  // holds Adam's two moments plus a master for exactly those elements.
  for (const int d : {1, 2, 4}) {
    dist::World world(d);
    world.run([&](dist::Comm& comm) {
      std::vector<Param> params = make_params(DType::kBf16);
      comm::GradReducerOptions ro;
      ro.bucket_elems = kBucketElems;
      comm::GradReducer reducer({refs_of(params)}, comm, ro);
      Adam adam(refs_of(params), AdamOptions{}, LossScalerOptions{},
                StepGroup{comm, &reducer});
      std::int64_t owned = 0;
      for (const model::ParamSegment& seg : adam.segments()) owned += seg.length;
      EXPECT_LE(owned, 67 / d + 2);
      EXPECT_EQ(adam.state_elems(), 3 * owned);
      const std::int64_t total = comm.all_reduce_scalar(static_cast<float>(owned));
      EXPECT_EQ(total, 67) << "every element has exactly one owner";
    });
  }
}

TEST(ShardedStep, OverflowOnOneRankSkipsEveryRank) {
  // Two pipeline stages with disjoint params: only rank 0's grads overflow.
  // Both must skip the step and keep equal loss scales.
  dist::World world(2);
  world.run([](dist::Comm& comm) {
    std::vector<Param> params = make_params(DType::kBf16);
    Sgd sgd(refs_of(params), SgdOptions{.lr = 0.1f}, LossScalerOptions{},
            StepGroup{comm, nullptr});
    std::vector<Tensor> before;
    for (auto& p : params) {
      before.push_back(p.value.clone());
      p.grad.fill(1.0f);
    }
    if (comm.rank() == 0) params[2].grad.data()[0] = std::numeric_limits<float>::infinity();
    const float scale = sgd.loss_scale();
    sgd.step();
    EXPECT_EQ(sgd.skipped_steps(), 1) << "rank " << comm.rank();
    EXPECT_LT(sgd.loss_scale(), scale);
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(same_bits(params[i].value, before[i])) << params[i].name;
    }
    const float mx = comm.all_reduce_scalar(sgd.loss_scale(), dist::ReduceOp::kMax);
    const float mn = comm.all_reduce_scalar(sgd.loss_scale(), dist::ReduceOp::kMin);
    EXPECT_EQ(mx, mn);
  });
}

}  // namespace
}  // namespace ptdp::optim
