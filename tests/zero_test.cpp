// ZeRO sharded-optimizer tests: the sharded step equals replicated
// data-parallel Adam (bitwise at d = 1, where both run the same update on
// the same grads; within allclose at d > 1, where the reduce-scatter sums
// in ring order), and the optimizer-state memory per rank shrinks by ~1/d
// (the property ZeRO exists for).

#include <gtest/gtest.h>

#include <vector>

#include "ptdp/dist/world.hpp"
#include "ptdp/tensor/ops.hpp"
#include "ptdp/zero/sharded_optimizer.hpp"

namespace ptdp::zero {
namespace {

using model::Param;
using tensor::Tensor;

// Builds identical params with per-"replica" grads (as if each replica saw
// a different microbatch). Grad layout: replica r's grad for element i is
// deterministic in (r, i).
std::vector<Param> make_params(int replica, std::uint64_t seed) {
  Rng wrng(seed, 0);  // weights identical across replicas
  Rng grng(seed, substream(1, static_cast<std::uint64_t>(replica)));
  std::vector<Param> params;
  for (auto [name, n] : {std::pair{"a", 7}, {"b", 12}, {"c", 5}}) {
    Param p;
    p.name = name;
    p.value = Tensor::randn({n}, wrng);
    p.grad = Tensor::randn({n}, grng);
    params.push_back(std::move(p));
  }
  return params;
}

// Reference: replicated DP Adam — average grads over replicas, step.
std::vector<Tensor> replicated_reference(int d, std::uint64_t seed, int steps) {
  std::vector<Param> params = make_params(0, seed);
  model::ParamRefs refs;
  for (auto& p : params) refs.push_back(&p);
  optim::Adam adam(refs, optim::AdamOptions{.lr = 0.05f});
  for (int s = 0; s < steps; ++s) {
    // Average the grads the d replicas would produce at this step.
    for (auto& p : params) p.grad.zero();
    for (int r = 0; r < d; ++r) {
      auto rep = make_params(r, seed + static_cast<std::uint64_t>(s));
      for (std::size_t i = 0; i < params.size(); ++i) {
        tensor::axpy_(params[i].grad, 1.0f / static_cast<float>(d), rep[i].grad);
      }
    }
    adam.step();
  }
  std::vector<Tensor> result;
  for (auto& p : params) result.push_back(p.value.clone());
  return result;
}

class ZeroEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ZeroEquivalenceTest, MatchesReplicatedAdamOverSteps) {
  const int d = GetParam();
  const std::uint64_t seed = 77;
  const int steps = 3;
  auto expected = replicated_reference(d, seed, steps);

  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    std::vector<Param> params = make_params(comm.rank(), seed);
    model::ParamRefs refs;
    for (auto& p : params) refs.push_back(&p);
    ZeroShardedAdam zero(refs, comm, ZeroAdamOptions{{.lr = 0.05f}});
    for (int s = 0; s < steps; ++s) {
      // Fresh per-step grads (per replica).
      auto rep = make_params(comm.rank(), seed + static_cast<std::uint64_t>(s));
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i].grad.copy_from(rep[i].grad);
      }
      zero.step();
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (d == 1) {
        // Same grads, same adam_update body: bit for bit.
        for (std::int64_t j = 0; j < params[i].value.numel(); ++j) {
          EXPECT_EQ(params[i].value.data()[static_cast<std::size_t>(j)],
                    expected[i].data()[static_cast<std::size_t>(j)])
              << params[i].name << "[" << j << "]";
        }
      } else {
        EXPECT_TRUE(tensor::allclose(params[i].value, expected[i], 1e-5f, 1e-6f))
            << params[i].name << " on rank " << comm.rank();
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(DataParallelSizes, ZeroEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(ZeroShardedAdam, StateShrinksWithShardCount) {
  // 24 elems over d ranks: shard = ceil(24/d), state = 3 tensors * shard.
  for (int d : {1, 2, 4}) {
    dist::World world(d);
    world.run([&](dist::Comm& comm) {
      std::vector<Param> params = make_params(comm.rank(), 5);
      model::ParamRefs refs;
      for (auto& p : params) refs.push_back(&p);
      ZeroShardedAdam zero(refs, comm, ZeroAdamOptions{});
      EXPECT_EQ(zero.shard_elems(), (24 + d - 1) / d);
      EXPECT_EQ(zero.local_state_bytes(),
                3 * zero.shard_elems() * static_cast<std::int64_t>(sizeof(float)));
    });
  }
}

TEST(ZeroShardedAdam, PaddingHandlesNonDivisibleTotals) {
  // 24 elements over 5 ranks: padded to 25, shard = 5. Must still be exact.
  const int d = 5;
  auto expected = replicated_reference(d, 31, 2);
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    std::vector<Param> params = make_params(comm.rank(), 31);
    model::ParamRefs refs;
    for (auto& p : params) refs.push_back(&p);
    ZeroShardedAdam zero(refs, comm, ZeroAdamOptions{{.lr = 0.05f}});
    for (int s = 0; s < 2; ++s) {
      auto rep = make_params(comm.rank(), 31 + static_cast<std::uint64_t>(s));
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i].grad.copy_from(rep[i].grad);
      }
      zero.step();
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(tensor::allclose(params[i].value, expected[i], 1e-5f, 1e-6f));
    }
  });
}

TEST(ZeroShardedAdam, ParamsStayReplicatedAfterStep) {
  // After the all-gather, every rank must hold identical full weights.
  const int d = 3;
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    std::vector<Param> params = make_params(comm.rank(), 13);
    model::ParamRefs refs;
    for (auto& p : params) refs.push_back(&p);
    ZeroShardedAdam zero(refs, comm, ZeroAdamOptions{});
    zero.step();
    // Compare element 0 of each param across ranks via all-reduce max/min.
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

TEST(ZeroShardedAdam, StateTensorsAreShardSized) {
  dist::World world(2);
  world.run([](dist::Comm& comm) {
    std::vector<Param> params = make_params(comm.rank(), 3);
    model::ParamRefs refs;
    for (auto& p : params) refs.push_back(&p);
    ZeroShardedAdam zero(refs, comm, ZeroAdamOptions{});
    auto state = zero.state_tensors();
    ASSERT_EQ(state.size(), 3u);
    for (auto& [name, t] : state) {
      EXPECT_EQ(t->numel(), zero.shard_elems()) << name;
    }
  });
}

}  // namespace
}  // namespace ptdp::zero
