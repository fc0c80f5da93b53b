// Kernel tests: GEMM vs. naive reference, elementwise ops, and
// finite-difference gradient checks for every backward kernel. The gradient
// checks are the load-bearing tests — the hand-written transformer backprop
// is only as correct as these kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::tensor {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.f;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at({i, p}) * b.at({p, j});
      c.at({i, j}) = acc;
    }
  }
  return c;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) && std::memcmp(a.data().data(), b.data().data(),
                                        a.data().size() * sizeof(float)) == 0;
}

// Central-difference numerical gradient of scalar_fn at x, for element i.
float numerical_grad(const std::function<float(const Tensor&)>& scalar_fn,
                     const Tensor& x, std::int64_t i, float eps = 1e-3f) {
  Tensor xp = x.clone();
  Tensor xm = x.clone();
  xp.data()[static_cast<std::size_t>(i)] += eps;
  xm.data()[static_cast<std::size_t>(i)] -= eps;
  return (scalar_fn(xp) - scalar_fn(xm)) / (2.0f * eps);
}

// Checks analytic grad dx of sum(weight ⊙ f(x)) against finite differences.
void check_grad(const std::function<Tensor(const Tensor&)>& f, const Tensor& x,
                const Tensor& dx_analytic, const Tensor& weight, float tol = 2e-2f) {
  auto scalar_fn = [&](const Tensor& xx) { return sum_all(mul(f(xx), weight)); };
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float num = numerical_grad(scalar_fn, x, i);
    const float ana = dx_analytic.data()[static_cast<std::size_t>(i)];
    ASSERT_NEAR(ana, num, tol) << "element " << i;
  }
}

TEST(Gemm, MatmulMatchesNaive) {
  Rng rng(1);
  for (auto [m, k, n] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8}, {1, 16, 5}}) {
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    EXPECT_TRUE(allclose(matmul(a, b), naive_matmul(a, b), 1e-4f, 1e-5f))
        << m << "x" << k << "x" << n;
  }
}

TEST(Gemm, MatmulNtEqualsMatmulWithExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({5, 6}, rng);
  EXPECT_TRUE(allclose(matmul_nt(a, b), matmul(a, b.transpose(0, 1)), 1e-4f, 1e-5f));
}

TEST(Gemm, MatmulTnEqualsMatmulWithExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::randn({6, 4}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  EXPECT_TRUE(allclose(matmul_tn(a, b), matmul(a.transpose(0, 1), b), 1e-4f, 1e-5f));
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5});
  EXPECT_THROW(matmul(a, b), CheckError);
  EXPECT_THROW(matmul_nt(a, b), CheckError);
  EXPECT_THROW(matmul_tn(a, b), CheckError);
}

TEST(Gemm, BatchedVariantsMatchPerBatchMatmul) {
  Rng rng(4);
  Tensor a = Tensor::randn({3, 2, 5}, rng);
  Tensor b = Tensor::randn({3, 5, 4}, rng);
  Tensor c = bmm(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 4}));
  for (std::int64_t i = 0; i < 3; ++i) {
    Tensor ai = a.slice(0, i, 1).view({2, 5});
    Tensor bi = b.slice(0, i, 1).view({5, 4});
    Tensor ci = c.slice(0, i, 1).view({2, 4});
    EXPECT_TRUE(allclose(ci, matmul(ai, bi), 1e-4f, 1e-5f));
  }

  Tensor bt = Tensor::randn({3, 4, 5}, rng);
  Tensor cnt = bmm_nt(a, bt);
  for (std::int64_t i = 0; i < 3; ++i) {
    Tensor ai = a.slice(0, i, 1).view({2, 5});
    Tensor bi = bt.slice(0, i, 1).view({4, 5});
    Tensor ci = cnt.slice(0, i, 1).view({2, 4});
    EXPECT_TRUE(allclose(ci, matmul_nt(ai, bi), 1e-4f, 1e-5f));
  }

  Tensor at = Tensor::randn({3, 5, 2}, rng);
  Tensor ctn = bmm_tn(at, b);
  for (std::int64_t i = 0; i < 3; ++i) {
    Tensor ai = at.slice(0, i, 1).view({5, 2});
    Tensor bi = b.slice(0, i, 1).view({5, 4});
    Tensor ci = ctn.slice(0, i, 1).view({2, 4});
    EXPECT_TRUE(allclose(ci, matmul_tn(ai, bi), 1e-4f, 1e-5f));
  }
}

TEST(Elementwise, AddSubMulScale) {
  Tensor a = Tensor::from_values({1, 2, 3});
  Tensor b = Tensor::from_values({4, 5, 6});
  EXPECT_EQ(add(a, b).at({1}), 7.f);
  EXPECT_EQ(sub(a, b).at({2}), -3.f);
  EXPECT_EQ(mul(a, b).at({0}), 4.f);
  EXPECT_EQ(scale(a, 2.f).at({2}), 6.f);
}

TEST(Elementwise, InPlaceOps) {
  Tensor a = Tensor::from_values({1, 2, 3});
  Tensor b = Tensor::from_values({1, 1, 1});
  add_(a, b);
  EXPECT_EQ(a.at({0}), 2.f);
  axpy_(a, 0.5f, b);
  EXPECT_EQ(a.at({0}), 2.5f);
  scale_(a, 2.f);
  EXPECT_EQ(a.at({0}), 5.f);
}

TEST(Elementwise, AddBiasBroadcastsOverRows) {
  Tensor x = Tensor::from_vector({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias = Tensor::from_values({10, 20, 30});
  Tensor y = add_bias(x, bias);
  EXPECT_EQ(y.at({0, 1}), 20.f);
  EXPECT_EQ(y.at({1, 2}), 31.f);
}

TEST(Elementwise, BiasGradIsColumnSum) {
  Tensor dy = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor g = bias_grad(dy);
  EXPECT_EQ(g.at({0}), 5.f);
  EXPECT_EQ(g.at({1}), 7.f);
  EXPECT_EQ(g.at({2}), 9.f);
}

TEST(Gelu, MatchesReferenceValues) {
  // GeLU(0) = 0, GeLU is ~x for large x, ~0 for very negative x.
  Tensor x = Tensor::from_values({0.f, 5.f, -5.f, 1.f});
  Tensor y = gelu(x);
  EXPECT_NEAR(y.at({0}), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at({1}), 5.0f, 1e-3f);
  EXPECT_NEAR(y.at({2}), 0.0f, 1e-3f);
  EXPECT_NEAR(y.at({3}), 0.8412f, 1e-3f);  // known GeLU(1) (tanh approx)
}

TEST(Gelu, GradientMatchesFiniteDifference) {
  Rng rng(11);
  Tensor x = Tensor::randn({3, 4}, rng);
  Tensor w = Tensor::randn({3, 4}, rng);
  Tensor dx = gelu_backward(w, x);
  check_grad([](const Tensor& t) { return gelu(t); }, x, dx, w);
}

TEST(Gelu, VectorPathMatchesExactScalarPath) {
  // The vectorized polynomial-exp path must track the libm tanh formula to
  // float ulp noise across the whole useful range, including a ragged tail
  // that doesn't fill a vector register.
  Rng rng(17);
  Tensor x = Tensor::randn({7, 53}, rng);
  Tensor w = Tensor::randn({7, 53}, rng);
  const Tensor y_vec = gelu(x);
  const Tensor dx_vec = gelu_backward(w, x);
  Tensor y_exact = Tensor::empty(x.shape());
  Tensor dx_exact = Tensor::empty(x.shape());
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  const float a = 0.044715f;
  auto xs = x.data();
  auto ws = w.data();
  auto ys = y_exact.data();
  auto ds = dx_exact.data();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float v = xs[i];
    const float t = std::tanh(c * (v + a * v * v * v));
    const float du = c * (1.0f + 3.0f * a * v * v);
    ys[i] = 0.5f * v * (1.0f + t);
    ds[i] = ws[i] * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du);
  }
  EXPECT_TRUE(allclose(y_vec, y_exact, 1e-5f, 1e-6f));
  EXPECT_TRUE(allclose(dx_vec, dx_exact, 1e-4f, 1e-5f));
}

TEST(Gelu, VectorPathIsBitwiseThreadCountStable) {
  struct ThreadGuard {
    std::size_t saved = runtime::intra_op_threads();
    ~ThreadGuard() { runtime::set_intra_op_threads(saved); }
  } guard;
  Rng rng(19);
  Tensor x = Tensor::randn({64, 96}, rng);
  Tensor bias = Tensor::randn({96}, rng);
  runtime::set_intra_op_threads(1);
  const Tensor serial = fused_bias_gelu(x, bias);
  for (const std::size_t t : {2u, 4u}) {
    runtime::set_intra_op_threads(t);
    const Tensor parallel = fused_bias_gelu(x, bias);
    const auto a = serial.data();
    const auto b = parallel.data();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "lane " << i << " at " << t << " threads";
    }
  }
}

TEST(Dropout, ZeroProbabilityIsIdentity) {
  Rng rng(1);
  Tensor x = Tensor::randn({4, 4}, rng);
  EXPECT_EQ(max_abs_diff(dropout(x, 0.0f, rng), x), 0.0f);
  EXPECT_EQ(max_abs_diff(dropout_backward(x, 0.0f, rng), x), 0.0f);
}

TEST(Dropout, PreservesExpectation) {
  Rng rng(2);
  Tensor x = Tensor::ones({10000});
  Tensor y = dropout(x, 0.3f, rng);
  EXPECT_NEAR(mean_all(y), 1.0f, 0.05f);
  // Survivors are scaled by 1/(1-p).
  for (float v : y.data()) {
    EXPECT_TRUE(v == 0.0f || std::abs(v - 1.0f / 0.7f) < 1e-5f);
  }
}

TEST(Dropout, BackwardAppliesSameMask) {
  Rng rng(3);
  Tensor x = Tensor::ones({100});
  Tensor y = dropout(x, 0.5f, rng);
  Tensor dy = Tensor::ones({100});
  Tensor dx = dropout_backward(dy, 0.5f, rng);
  EXPECT_EQ(max_abs_diff(dx, y), 0.0f);  // since x == dy == 1
}

// p = 0.1 and 1/3 put p·2⁵³ between two integers; 0.5 puts it on one.
constexpr double kDrawPs[] = {0.0, 0.1, 0.5, 1.0 / 3.0};

// The in-place redraw is the stream's own draw: u64_at(e) is a fresh
// stream's e-th next_u64(), and bernoulli(u64_at(e), p) its e-th
// next_bernoulli(p), at every counter.
TEST(Dropout, RedrawEqualsNextBernoulliAtEveryCounter) {
  const Rng key(77, 5);
  Rng seq = key;
  for (std::uint64_t e = 0; e < 4096; ++e) {
    ASSERT_EQ(key.u64_at(e), seq.next_u64()) << "counter " << e;
  }
  for (const double p : kDrawPs) {
    Rng draws = key;
    for (std::uint64_t e = 0; e < 4096; ++e) {
      ASSERT_EQ(bernoulli(key.u64_at(e), p), draws.next_bernoulli(p))
          << "p " << p << " counter " << e;
    }
  }
}

// bernoulli(u, p) is true exactly when the draw's top 53 bits, k, are below
// p·2⁵³: at k = ⌈p·2⁵³⌉ − 1 and ⌈p·2⁵³⌉ the predicate flips.
TEST(Dropout, BernoulliThresholdIsTheCeilingOfPTimesTwoToThe53) {
  for (const double p : kDrawPs) {
    if (p == 0.0) continue;
    const auto ceil_k = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    EXPECT_TRUE(bernoulli((ceil_k - 1) << 11 | 0x7ff, p)) << p;
    EXPECT_FALSE(bernoulli(ceil_k << 11, p)) << p;
  }
  EXPECT_FALSE(bernoulli(0, 0.0));
}

// What the kernels compute against a mask drawn element by element with
// next_bernoulli, at 1 and 4 threads: dropout, its backward and the fused
// bias+dropout+add over a tensor the pool splits into several chunks.
TEST(Dropout, KernelsMatchAnExplicitMaskAtAnyThreadCount) {
  struct ThreadGuard {
    std::size_t saved = runtime::intra_op_threads();
    ~ThreadGuard() { runtime::set_intra_op_threads(saved); }
  } guard;
  Rng rng(16);
  const Tensor x = Tensor::randn({97, 1031}, rng);
  const Tensor bias = Tensor::randn({1031}, rng);
  const Tensor residual = Tensor::randn({97, 1031}, rng);
  const Rng site(5, 6);
  for (const float p : {0.1f, 0.5f}) {
    SCOPED_TRACE(testing::Message() << "p " << p);
    Tensor mask(x.shape());
    Rng draws = site;
    for (float& m : mask.data()) m = draws.next_bernoulli(p) ? 0.0f : 1.0f / (1.0f - p);
    Tensor fused_ref = mul(add_bias(x, bias), mask);
    add_(fused_ref, residual);
    const Tensor dropped = mul(x, mask);
    for (const std::size_t threads : {1u, 4u}) {
      runtime::set_intra_op_threads(threads);
      EXPECT_TRUE(bitwise_equal(dropout(x, p, site), dropped)) << threads;
      EXPECT_TRUE(bitwise_equal(dropout_backward(x, p, site), dropped)) << threads;
      EXPECT_TRUE(bitwise_equal(fused_bias_dropout_add(x, bias, residual, p, site),
                                fused_ref))
          << threads;
    }
  }
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(4);
  Tensor x = Tensor::randn({5, 16}, rng, 3.0f);
  Tensor gamma = Tensor::ones({16});
  Tensor beta = Tensor::zeros({16});
  auto res = layernorm(x, gamma, beta);
  for (std::int64_t r = 0; r < 5; ++r) {
    float mean = 0.f, var = 0.f;
    for (std::int64_t j = 0; j < 16; ++j) mean += res.y.at({r, j});
    mean /= 16.f;
    for (std::int64_t j = 0; j < 16; ++j) {
      const float d = res.y.at({r, j}) - mean;
      var += d * d;
    }
    var /= 16.f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(LayerNorm, GammaBetaAffineApplied) {
  Tensor x = Tensor::from_vector({1, 2}, {-1.f, 1.f});
  Tensor gamma = Tensor::from_values({2.f, 2.f});
  Tensor beta = Tensor::from_values({5.f, 5.f});
  auto res = layernorm(x, gamma, beta);
  // Normalized values are ±1 (approx), so y = ±2 + 5.
  EXPECT_NEAR(res.y.at({0, 0}), 3.0f, 1e-2f);
  EXPECT_NEAR(res.y.at({0, 1}), 7.0f, 1e-2f);
}

TEST(LayerNorm, InputGradientMatchesFiniteDifference) {
  Rng rng(5);
  Tensor x = Tensor::randn({3, 8}, rng);
  Tensor gamma = Tensor::randn({8}, rng, 0.5f);
  Tensor beta = Tensor::randn({8}, rng, 0.5f);
  Tensor w = Tensor::randn({3, 8}, rng);
  auto fwd = layernorm(x, gamma, beta);
  auto grads = layernorm_backward(w, x, gamma, fwd.mean, fwd.rstd);
  check_grad([&](const Tensor& t) { return layernorm(t, gamma, beta).y; }, x, grads.dx,
             w);
}

TEST(LayerNorm, GammaBetaGradientsMatchFiniteDifference) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 8}, rng);
  Tensor gamma = Tensor::randn({8}, rng, 0.5f);
  Tensor beta = Tensor::randn({8}, rng, 0.5f);
  Tensor w = Tensor::randn({3, 8}, rng);
  auto fwd = layernorm(x, gamma, beta);
  auto grads = layernorm_backward(w, x, gamma, fwd.mean, fwd.rstd);
  check_grad([&](const Tensor& g) { return layernorm(x, g, beta).y; }, gamma,
             grads.dgamma, w);
  check_grad([&](const Tensor& b) { return layernorm(x, gamma, b).y; }, beta,
             grads.dbeta, w);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(7);
  Tensor x = Tensor::randn({4, 9}, rng, 2.f);
  Tensor y = softmax_lastdim(x);
  Tensor s = row_sum(y);
  for (float v : s.data()) EXPECT_NEAR(v, 1.0f, 1e-5f);
}

TEST(Softmax, StableUnderLargeInputs) {
  Tensor x = Tensor::from_vector({1, 3}, {1000.f, 1000.f, 1000.f});
  Tensor y = softmax_lastdim(x);
  for (float v : y.data()) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-6f);
}

// A −inf entry (a masked-out score) gets exactly 0, not exp(−87)/Σ, which
// is subnormal once Σ > 1.4; the finite entries are bitwise the softmax of
// the row without the masked ones.
TEST(Softmax, NegativeInfinityGivesExactZero) {
  Rng rng(17);
  constexpr std::int64_t kN = 40;  // two full vector groups and a tail
  Tensor x = Tensor::randn({2, kN}, rng);
  x.data()[0] = 0.0f;
  std::fill_n(x.data().data() + kN, kN, 0.0f);  // row 1: Σ = 20
  std::vector<float> kept[2];
  for (std::int64_t r = 0; r < 2; ++r) {
    for (std::int64_t j = 0; j < kN; ++j) {
      float& v = x.data()[static_cast<std::size_t>(r * kN + j)];
      if (j % 2 == 1) {
        v = -std::numeric_limits<float>::infinity();
      } else {
        kept[r].push_back(v);
      }
    }
  }
  const Tensor y = softmax_lastdim(x);
  for (std::int64_t r = 0; r < 2; ++r) {
    const Tensor want = softmax_lastdim(Tensor::from_vector(
        {1, static_cast<std::int64_t>(kept[r].size())}, kept[r]));
    for (std::int64_t j = 0; j < kN; ++j) {
      const float got = y.data()[static_cast<std::size_t>(r * kN + j)];
      if (j % 2 == 1) {
        EXPECT_EQ(got, 0.0f) << "row " << r << " key " << j;
        EXPECT_FALSE(std::signbit(got));
      } else {
        EXPECT_EQ(got, want.data()[static_cast<std::size_t>(j / 2)])
            << "row " << r << " key " << j;
      }
    }
  }
}

TEST(Softmax, GradientMatchesFiniteDifference) {
  Rng rng(8);
  Tensor x = Tensor::randn({2, 5}, rng);
  Tensor w = Tensor::randn({2, 5}, rng);
  Tensor y = softmax_lastdim(x);
  Tensor dx = softmax_backward(y, w);
  check_grad([](const Tensor& t) { return softmax_lastdim(t); }, x, dx, w);
}

TEST(Fused, BiasGeluMatchesUnfusedComposition) {
  Rng rng(9);
  Tensor x = Tensor::randn({6, 8}, rng);
  Tensor bias = Tensor::randn({8}, rng);
  EXPECT_TRUE(
      allclose(fused_bias_gelu(x, bias), gelu(add_bias(x, bias)), 1e-6f, 1e-7f));
}

TEST(Fused, BiasGeluBackwardMatchesFiniteDifference) {
  Rng rng(10);
  Tensor x = Tensor::randn({3, 6}, rng);
  Tensor bias = Tensor::randn({6}, rng);
  Tensor w = Tensor::randn({3, 6}, rng);
  Tensor dbias = Tensor::zeros({6});
  Tensor dx = fused_bias_gelu_backward(w, x, bias, dbias);
  check_grad([&](const Tensor& t) { return fused_bias_gelu(t, bias); }, x, dx, w);
  check_grad([&](const Tensor& b) { return fused_bias_gelu(x, b); }, bias, dbias, w);
}

TEST(Fused, BiasDropoutAddAtP0MatchesComposition) {
  // The one-pass kernel is bitwise the unfused add_bias -> dropout -> add_
  // composition: same per-element rounding, same draw per element.
  Rng rng(11);
  Tensor x = Tensor::randn({37, 53}, rng);
  Tensor bias = Tensor::randn({53}, rng);
  Tensor residual = Tensor::randn({37, 53}, rng);
  const Rng site(5, 6);
  for (const float p : {0.0f, 0.1f}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const Tensor y = fused_bias_dropout_add(x, bias, residual, p, site);
    Tensor ref = dropout(add_bias(x, bias), p, site);
    add_(ref, residual);
    EXPECT_TRUE(bitwise_equal(y, ref));
  }
}

// attention()'s P for queries whose scores against the keys are s [heads,
// m, len]: query row i is its score row and key j the unit vector e_j (dk =
// len), so q_i·k_j = s_ij exactly. The queries sit at positions
// [len - m, len), so row i sees keys j <= i + (len - m). The values are the
// unit vectors too, so each context row is its P row: Σ_j p_ij e_j adds
// every p_ij to zeros, exactly.
Tensor attention_probs(const Tensor& s, float scl) {
  const std::int64_t heads = s.dim(0), m = s.dim(1), len = s.dim(2);
  Tensor eye({len, len});
  std::vector<const float*> rows;
  for (std::int64_t j = 0; j < len; ++j) {
    eye.at({j, j}) = 1.0f;
    rows.push_back(eye.data().data() + j * len);
  }
  Tensor ctx({m, heads * len});
  const AttentionSeq seq{s.data().data(), len, m,   len - m, rows,
                         rows,            0,   ctx.data().data(), heads * len};
  attention({&seq, 1}, {heads, len, m * len, scl, /*causal=*/true});
  return ctx.view({m, heads, len}).permute({1, 0, 2});
}

TEST(Fused, CausalSoftmaxMasksUpperTriangle) {
  Rng rng(12);
  Tensor s = Tensor::randn({2, 4, 4}, rng);
  Tensor y = attention_probs(s, 1.0f);
  for (std::int64_t r = 0; r < 2; ++r) {
    for (std::int64_t i = 0; i < 4; ++i) {
      float row_total = 0.f;
      for (std::int64_t j = 0; j < 4; ++j) {
        if (j > i) {
          EXPECT_EQ(y.at({r, i, j}), 0.0f) << "future position leaked";
        }
        row_total += y.at({r, i, j});
      }
      EXPECT_NEAR(row_total, 1.0f, 1e-5f);
    }
  }
}

TEST(Fused, CausalSoftmaxMatchesExplicitMask) {
  Rng rng(13);
  const std::int64_t sq = 5;
  Tensor s = Tensor::randn({3, sq, sq}, rng);
  // The unfused composition: scale, an explicit -inf causal fill, softmax.
  Tensor masked = scale(s, 0.37f);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t i = 0; i < sq; ++i) {
      for (std::int64_t j = i + 1; j < sq; ++j) {
        masked.at({r, i, j}) = -std::numeric_limits<float>::infinity();
      }
    }
  }
  EXPECT_TRUE(allclose(attention_probs(s, 0.37f), softmax_lastdim(masked),
                       1e-5f, 1e-6f));
}

TEST(Fused, CausalSoftmaxHandlesRectangular) {
  // sq=2 queries attending over sk=4 keys (e.g. incremental decoding):
  // query i sees keys j <= i + (sk - sq).
  Rng rng(14);
  Tensor s = Tensor::randn({1, 2, 4}, rng);
  Tensor y = attention_probs(s, 1.0f);
  EXPECT_EQ(y.at({0, 0, 3}), 0.0f);
  EXPECT_GT(y.at({0, 0, 2}), 0.0f);
  EXPECT_GT(y.at({0, 1, 3}), 0.0f);
}

// attention_backward's dQ/dK/dV against central differences of
// Σ w ⊙ attention(qkv), causal and not, with and without a dropout mask.
// The rows are [heads][q|k|v][dk] with a ragged dk.
TEST(Fused, ScaleSoftmaxBackwardMatchesFiniteDifference) {
  Rng rng(15);
  constexpr std::int64_t kHeads = 2, kLen = 4, kDk = 3, kRow = 3 * kHeads * kDk;
  const Tensor qkv = Tensor::randn({kLen, kRow}, rng);
  const Tensor w = Tensor::randn({kLen, kHeads * kDk}, rng);
  const Rng streams[kHeads] = {Rng(15, 1), Rng(15, 2)};
  for (const bool causal : {true, false}) {
    for (const bool dropout : {false, true}) {
      SCOPED_TRACE(testing::Message() << (causal ? "causal" : "full")
                                      << (dropout ? " dropout" : ""));
      const AttentionShape shape{kHeads, kDk, 3 * kDk, 0.5f, causal};
      const std::span<const Rng> drop = dropout ? streams : std::span<const Rng>();
      auto seq_of = [&](const Tensor& x, std::vector<const float*>& k,
                        std::vector<const float*>& v) {
        for (std::int64_t j = 0; j < kLen; ++j) {
          k.push_back(x.data().data() + j * kRow + kDk);
          v.push_back(x.data().data() + j * kRow + 2 * kDk);
        }
        return AttentionSeq{x.data().data(), kRow, kLen, 0, k, v, 3 * kDk,
                            nullptr, 0, drop, 0.3f};
      };
      auto forward = [&](const Tensor& x) {
        std::vector<const float*> k, v;
        AttentionSeq seq = seq_of(x, k, v);
        Tensor ctx({kLen, kHeads * kDk});
        seq.out = ctx.data().data();
        seq.out_stride = kHeads * kDk;
        attention({&seq, 1}, shape);
        return ctx;
      };
      std::vector<const float*> k, v;
      Tensor dqkv({kLen, kRow});
      std::vector<float*> dk, dv;
      for (std::int64_t j = 0; j < kLen; ++j) {
        dk.push_back(dqkv.data().data() + j * kRow + kDk);
        dv.push_back(dqkv.data().data() + j * kRow + 2 * kDk);
      }
      const AttentionGradSeq g{seq_of(qkv, k, v), w.data().data(), kHeads * kDk,
                               dqkv.data().data(), kRow, dk, dv};
      attention_backward({&g, 1}, shape);
      check_grad(forward, qkv, dqkv, w);
    }
  }
}

TEST(Embedding, GathersRows) {
  Tensor table = Tensor::from_vector({3, 2}, {0, 1, 10, 11, 20, 21});
  std::vector<std::int32_t> ids{2, 0, 2};
  Tensor y = embedding(table, ids);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  EXPECT_EQ(y.at({0, 0}), 20.f);
  EXPECT_EQ(y.at({1, 1}), 1.f);
  EXPECT_EQ(y.at({2, 0}), 20.f);
}

TEST(Embedding, OutOfRangeIdThrows) {
  Tensor table({3, 2});
  std::vector<std::int32_t> ids{3};
  EXPECT_THROW(embedding(table, ids), CheckError);
}

TEST(Embedding, BackwardScatterAddsDuplicates) {
  Tensor dtable = Tensor::zeros({3, 2});
  std::vector<std::int32_t> ids{1, 1, 0};
  Tensor dy = Tensor::from_vector({3, 2}, {1, 2, 3, 4, 5, 6});
  embedding_backward(dy, ids, dtable);
  EXPECT_EQ(dtable.at({1, 0}), 4.f);  // 1 + 3
  EXPECT_EQ(dtable.at({1, 1}), 6.f);  // 2 + 4
  EXPECT_EQ(dtable.at({0, 0}), 5.f);
  EXPECT_EQ(dtable.at({2, 0}), 0.f);
}

TEST(CrossEntropy, PerfectPredictionHasLowLoss) {
  Tensor logits = Tensor::from_vector({2, 3}, {10, -10, -10, -10, 10, -10});
  std::vector<std::int32_t> targets{0, 1};
  auto res = cross_entropy(logits, targets);
  EXPECT_LT(res.loss, 1e-4f);
}

TEST(CrossEntropy, UniformLogitsGiveLogV) {
  Tensor logits = Tensor::zeros({4, 8});
  std::vector<std::int32_t> targets{0, 3, 5, 7};
  auto res = cross_entropy(logits, targets);
  EXPECT_NEAR(res.loss, std::log(8.f), 1e-5f);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(16);
  Tensor logits = Tensor::randn({3, 5}, rng);
  std::vector<std::int32_t> targets{1, 4, 0};
  auto res = cross_entropy(logits, targets);
  Tensor dl = cross_entropy_backward(res.probs, targets);
  auto scalar_fn = [&](const Tensor& l) { return cross_entropy(l, targets).loss; };
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float num = numerical_grad(scalar_fn, logits, i);
    ASSERT_NEAR(dl.data()[static_cast<std::size_t>(i)], num, 2e-2f);
  }
}

TEST(CrossEntropy, GradientRowsSumToZero) {
  Rng rng(17);
  Tensor logits = Tensor::randn({4, 6}, rng);
  std::vector<std::int32_t> targets{0, 1, 2, 3};
  auto res = cross_entropy(logits, targets);
  Tensor dl = cross_entropy_backward(res.probs, targets);
  Tensor rs = row_sum(dl);
  for (float v : rs.data()) EXPECT_NEAR(v, 0.0f, 1e-6f);
}

TEST(Reductions, SumMeanMaxNorm) {
  Tensor x = Tensor::from_values({1, -2, 3});
  EXPECT_EQ(sum_all(x), 2.f);
  EXPECT_NEAR(mean_all(x), 2.f / 3.f, 1e-6f);
  EXPECT_EQ(max_all(x), 3.f);
  EXPECT_DOUBLE_EQ(squared_norm(x), 14.0);
}

TEST(Reductions, RowMaxAndRowSum) {
  Tensor x = Tensor::from_vector({2, 3}, {1, 5, 3, -1, -5, -3});
  Tensor mx = row_max(x);
  EXPECT_EQ(mx.at({0}), 5.f);
  EXPECT_EQ(mx.at({1}), -1.f);
  Tensor s = row_sum(x);
  EXPECT_EQ(s.at({0}), 9.f);
  EXPECT_EQ(s.at({1}), -9.f);
}

}  // namespace
}  // namespace ptdp::tensor
