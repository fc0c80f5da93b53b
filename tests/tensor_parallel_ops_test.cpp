// Tests for the intra-op parallel compute backend: the packed GEMM kernels
// against a naive reference at tile-unfriendly shapes, bitwise determinism
// across intra-op thread counts, the parallel_for facility itself, and
// kernels running inside a dist gang (rank threads + intra-op helpers must
// compose without deadlock).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "ptdp/dist/world.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp {
namespace {

using tensor::Tensor;

/// Restore the requested intra-op width when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(runtime::intra_op_threads()) {}
  ~ThreadGuard() { runtime::set_intra_op_threads(saved_); }

 private:
  std::size_t saved_;
};

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  auto pa = a.data();
  auto pb = b.data();
  auto pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t j = 0; j < n; ++j) {
        pc[static_cast<std::size_t>(i * n + j)] +=
            pa[static_cast<std::size_t>(i * k + p)] *
            pb[static_cast<std::size_t>(p * n + j)];
      }
    }
  }
  return c;
}

// ---- parallel_for facility ----------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::parallel_for(0, kN, 64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  int calls = 0;
  runtime::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Range at or below grain runs as a single inline call on the caller.
  std::atomic<int> chunked{0};
  runtime::parallel_for(0, 8, 16, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 8);
    chunked++;
  });
  EXPECT_EQ(chunked.load(), 1);
}

TEST(ParallelFor, NestedCallsRunSerialInline) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  EXPECT_FALSE(runtime::in_parallel_region());
  std::atomic<bool> saw_nested_region{false};
  runtime::parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
    if (runtime::in_parallel_region()) saw_nested_region = true;
    // A nested parallel_for must degrade to one inline call.
    std::atomic<int> inner_calls{0};
    runtime::parallel_for(0, 1000, 1, [&](std::int64_t b, std::int64_t e) {
      EXPECT_EQ(b, 0);
      EXPECT_EQ(e, 1000);
      inner_calls++;
    });
    EXPECT_EQ(inner_calls.load(), 1);
  });
  EXPECT_TRUE(saw_nested_region.load());
  EXPECT_FALSE(runtime::in_parallel_region());
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  EXPECT_THROW(
      runtime::parallel_for(0, 256, 1,
                            [&](std::int64_t b, std::int64_t) {
                              if (b == 128) throw std::runtime_error("chunk boom");
                            }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<std::int64_t> total{0};
  runtime::parallel_for(0, 256, 1, [&](std::int64_t b, std::int64_t e) {
    total += e - b;
  });
  EXPECT_EQ(total.load(), 256);
}

TEST(ParallelFor, EnvVariableParsing) {
  ASSERT_EQ(setenv("PTDP_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 3u);
  ASSERT_EQ(setenv("PTDP_NUM_THREADS", "garbage", 1), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 0u);
  ASSERT_EQ(setenv("PTDP_NUM_THREADS", "0", 1), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 0u);
  ASSERT_EQ(unsetenv("PTDP_NUM_THREADS"), 0);
  EXPECT_EQ(runtime::detail::env_intra_op_threads(), 0u);
}

TEST(ParallelFor, SetThreadsRoundTrips) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(2);
  EXPECT_EQ(runtime::intra_op_threads(), 2u);
  runtime::set_intra_op_threads(1);
  EXPECT_EQ(runtime::intra_op_threads(), 1u);
}

// ---- GEMM correctness at tile-unfriendly shapes -------------------------------

TEST(ParallelGemm, MatchesNaiveAtOddShapes) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  Rng rng(11);
  const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> shapes = {
      {1, 1, 1},    {1, 17, 1},   {3, 5, 7},     {8, 16, 256},
      {17, 31, 13}, {65, 129, 257},  // just past the MR/NR/KC tile edges
      {100, 3, 300}, {129, 1023, 5}, {256, 16, 1},
  };
  for (const auto& [m, n, k] : shapes) {
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor ref = naive_matmul(a, b);
    EXPECT_TRUE(allclose(tensor::matmul(a, b), ref, 1e-4f, 1e-5f))
        << "nn " << m << "x" << n << "x" << k;
    EXPECT_TRUE(allclose(tensor::matmul_nt(a, b.transpose(0, 1)), ref, 1e-4f, 1e-5f))
        << "nt " << m << "x" << n << "x" << k;
    EXPECT_TRUE(allclose(tensor::matmul_tn(a.transpose(0, 1), b), ref, 1e-4f, 1e-5f))
        << "tn " << m << "x" << n << "x" << k;
  }
}

// The old TN kernel skipped zero A entries (a data-dependent branch); the
// packed kernel must handle fully-zero and sparse operands identically.
TEST(ParallelGemm, SparseOperandsNoSpecialCasing) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  Rng rng(12);
  Tensor a = Tensor::randn({37, 41}, rng);
  auto da = a.data();
  for (std::size_t i = 0; i < da.size(); i += 2) da[i] = 0.0f;  // 50% zeros
  Tensor b = Tensor::randn({37, 29}, rng);
  Tensor ref = naive_matmul(a.transpose(0, 1), b);
  EXPECT_TRUE(allclose(tensor::matmul_tn(a, b), ref, 1e-4f, 1e-5f));
  Tensor zeros({37, 41});
  EXPECT_EQ(tensor::max_all(tensor::matmul_tn(zeros, b)), 0.0f);
}

// ---- bitwise determinism across intra-op thread counts ------------------------

template <typename KernelFn>
void expect_bitwise_stable(KernelFn kernel) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(1);
  Tensor base = kernel();
  for (std::size_t threads : {2u, 8u}) {
    runtime::set_intra_op_threads(threads);
    Tensor again = kernel();
    EXPECT_EQ(tensor::max_abs_diff(base, again), 0.0f)
        << "kernel result changed at " << threads << " intra-op threads";
  }
}

// (m, n, k): a row-panel shape plus small-m ones (m < 128: the column-sliver
// path), with n ragged (40) and n past the 1024-column panel (1040).
const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> kDeterminismShapes =
    {{513, 259, 511}, {1, 40, 300}, {5, 1040, 300}, {13, 40, 511}, {127, 1040, 300}};

TEST(ParallelDeterminism, GemmBitwiseStable) {
  Rng rng(21);
  for (const auto& [m, n, k] : kDeterminismShapes) {
    SCOPED_TRACE(testing::Message() << m << "x" << n << "x" << k);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    expect_bitwise_stable([&] { return tensor::matmul(a, b); });
    expect_bitwise_stable([&] { return tensor::matmul_nt(a, b.transpose(0, 1)); });
    expect_bitwise_stable([&] { return tensor::matmul_tn(a.transpose(0, 1), b); });
  }
}

TEST(ParallelDeterminism, BmmBitwiseStable) {
  Rng rng(22);
  Tensor a = Tensor::randn({6, 33, 65}, rng);
  Tensor b = Tensor::randn({6, 65, 17}, rng);
  expect_bitwise_stable([&] { return tensor::bmm(a, b); });
  for (const auto& [m, n, k] : kDeterminismShapes) {
    SCOPED_TRACE(testing::Message() << m << "x" << n << "x" << k);
    Tensor sa = Tensor::randn({2, m, k}, rng);
    Tensor sb = Tensor::randn({2, k, n}, rng);
    expect_bitwise_stable([&] { return tensor::bmm(sa, sb); });
  }
}

// The small-m path (m < 128 rows: column slivers, B read in place) must
// reproduce the row-panel path bit for bit: an m-row product equals the
// first m rows of the same product with A stacked to 256 rows.
TEST(ParallelDeterminism, SmallMRowsMatchRowPanelPath) {
  ThreadGuard guard;
  Rng rng(25);
  constexpr std::int64_t kTall = 256;
  for (std::size_t threads : {1u, 4u}) {
    runtime::set_intra_op_threads(threads);
    for (std::int64_t k : {64, 300}) {  // 300 spans two 256-deep k panels
      for (std::int64_t n : {16, 40, 768, 1040}) {
        Tensor tall = Tensor::randn({kTall, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        Tensor bt = b.transpose(0, 1);
        Tensor tall_t = tall.transpose(0, 1);
        Tensor nn = tensor::matmul(tall, b);
        Tensor nt = tensor::matmul_nt(tall, bt);
        Tensor tn = tensor::matmul_tn(tall_t, b);
        Tensor bb = tensor::bmm(tall.view({1, kTall, k}), b.view({1, k, n}));
        for (std::int64_t m : {1, 5, 8, 13, 127}) {
          SCOPED_TRACE(testing::Message() << threads << " threads, " << m << "x"
                                          << n << "x" << k);
          Tensor a = tall.slice(0, 0, m);
          Tensor at = a.transpose(0, 1);
          EXPECT_EQ(tensor::max_abs_diff(tensor::matmul(a, b), nn.slice(0, 0, m)),
                    0.0f) << "matmul";
          EXPECT_EQ(tensor::max_abs_diff(tensor::matmul_nt(a, bt), nt.slice(0, 0, m)),
                    0.0f) << "matmul_nt";
          EXPECT_EQ(tensor::max_abs_diff(tensor::matmul_tn(at, b), tn.slice(0, 0, m)),
                    0.0f) << "matmul_tn";
          EXPECT_EQ(tensor::max_abs_diff(
                        tensor::bmm(a.view({1, m, k}), b.view({1, k, n})),
                        bb.slice(1, 0, m)),
                    0.0f) << "bmm";
        }
      }
    }
  }
}

TEST(ParallelDeterminism, ElementwiseAndFusedBitwiseStable) {
  Rng rng(23);
  Tensor x = Tensor::randn({301, 257}, rng);
  Tensor bias = Tensor::randn({257}, rng);
  Tensor gamma = Tensor::uniform({257}, rng, 0.5f, 1.5f);
  Tensor beta = Tensor::randn({257}, rng);
  Tensor dy = Tensor::randn({301, 257}, rng);

  expect_bitwise_stable([&] { return tensor::gelu(x); });
  expect_bitwise_stable([&] { return tensor::add_bias(x, bias); });
  expect_bitwise_stable([&] { return tensor::bias_grad(dy); });
  expect_bitwise_stable([&] { return tensor::fused_bias_gelu(x, bias); });
  expect_bitwise_stable([&] { return tensor::softmax_lastdim(x); });
  expect_bitwise_stable([&] { return tensor::layernorm(x, gamma, beta).y; });

  auto ln = tensor::layernorm(x, gamma, beta);
  expect_bitwise_stable([&] {
    auto grads = tensor::layernorm_backward(dy, x, gamma, ln.mean, ln.rstd);
    // Fold all three grads into one tensor so one comparison covers them.
    Tensor packed({301 * 257 + 2 * 257});
    auto dst = packed.data();
    auto dx = grads.dx.data();
    std::copy(dx.begin(), dx.end(), dst.begin());
    auto dg = grads.dgamma.data();
    std::copy(dg.begin(), dg.end(), dst.begin() + dx.size());
    auto db = grads.dbeta.data();
    std::copy(db.begin(), db.end(), dst.begin() + dx.size() + dg.size());
    return packed;
  });

  expect_bitwise_stable([&] {
    Tensor dbias({257});
    Tensor dx = tensor::fused_bias_gelu_backward(dy, x, bias, dbias);
    Tensor packed({301 * 257 + 257});
    auto dst = packed.data();
    auto dxs = dx.data();
    std::copy(dxs.begin(), dxs.end(), dst.begin());
    auto dbs = dbias.data();
    std::copy(dbs.begin(), dbs.end(), dst.begin() + dxs.size());
    return packed;
  });
}

// The fused attention kernel (scale + mask + softmax between its two
// products): context and P, causal and not, at every intra-op thread count.
// P is read as the context of one-hot value rows (v_j = e_j, len <= dk), so
// each context lane is one p_ij added to zeros.
TEST(ParallelDeterminism, FusedSoftmaxBitwiseStable) {
  Rng rng(24);
  constexpr std::int64_t kHeads = 10, kLen = 37, kDk = 40;
  const Tensor qkv = Tensor::randn({kLen, 3 * kHeads * kDk}, rng);
  Tensor eye({kLen, 3 * kHeads * kDk});  // head h of row j: e_j
  std::vector<const float*> k, v, onehot;
  for (std::int64_t j = 0; j < kLen; ++j) {
    k.push_back(qkv.data().data() + j * 3 * kHeads * kDk + kDk);
    v.push_back(qkv.data().data() + j * 3 * kHeads * kDk + 2 * kDk);
    for (std::int64_t h = 0; h < kHeads; ++h) eye.at({j, h * 3 * kDk + j}) = 1.0f;
    onehot.push_back(eye.data().data() + j * 3 * kHeads * kDk);
  }
  for (const bool causal : {true, false}) {
    expect_bitwise_stable([&] {
      // [context rows | P rows] in one tensor so one comparison covers both.
      Tensor out({2 * kLen * kHeads * kDk});
      for (int part = 0; part < 2; ++part) {
        const tensor::AttentionSeq seq{
            qkv.data().data(), 3 * kHeads * kDk, kLen, 0, k, part == 0 ? v : onehot,
            3 * kDk, out.data().data() + part * kLen * kHeads * kDk, kHeads * kDk};
        tensor::attention({&seq, 1}, {kHeads, kDk, 3 * kDk, 0.125f, causal});
      }
      return out;
    });
  }
}

// ---- intra-op parallelism inside a dist gang ----------------------------------

// Every rank of a 4-rank gang runs parallel GEMMs while also hitting
// collective rendezvous points. The intra-op pool is shared process-wide, so
// this exercises exactly the oversubscription/deadlock scenario the separate
// pool exists to prevent.
TEST(ParallelGang, RanksDoParallelMatmulsWithoutDeadlock) {
  ThreadGuard guard;
  runtime::set_intra_op_threads(4);
  Rng rng(31);
  Tensor a = Tensor::randn({130, 140}, rng);
  Tensor b = Tensor::randn({140, 150}, rng);
  Tensor expected = tensor::matmul(a, b);

  constexpr int kRanks = 4;
  dist::World world(kRanks);
  std::vector<float> checks(kRanks, 0.0f);
  world.run([&](dist::Comm& comm) {
    for (int iter = 0; iter < 3; ++iter) {
      Tensor c = comm.rank() % 2 == 0 ? tensor::matmul(a, b)
                                      : tensor::matmul_nt(a, b.transpose(0, 1));
      EXPECT_EQ(tensor::max_abs_diff(c, expected), 0.0f);
      comm.barrier();
      // Mix a collective between compute bursts: the rank thread blocks in
      // rendezvous while other ranks may be fanning out intra-op work.
      const float sum = comm.all_reduce_scalar(tensor::sum_all(c));
      EXPECT_FLOAT_EQ(sum, static_cast<float>(kRanks) * tensor::sum_all(expected));
    }
    checks[static_cast<std::size_t>(comm.rank())] = 1.0f;
  });
  for (float v : checks) EXPECT_EQ(v, 1.0f);
  EXPECT_EQ(world.pending_messages(), 0u);
}

}  // namespace
}  // namespace ptdp
