// GEMM conformance suite: every GEMM entry point is checked element by
// element against a double-precision naive product of the same stored
// operands.
//
//   * tensor::matmul / matmul_nt / matmul_tn (NN, NT, TN) and
//     add_matmul_tn_ (TN accumulated onto a nonzero target) for each
//     (f32|bf16)² operand pair. m spans the small-m sliver path (m < 128)
//     and the row-panel path; bf16 × bf16 takes the AMX kernel where the
//     host has one.
//   * NT and TN bitwise equal to NN over the materialised transpose, and
//     add_matmul_tn_ onto zeros bitwise equal to matmul_tn, at 1 and 4
//     threads: the packs absorb the transpose without touching the
//     accumulation order.
//   * quant::matmul at int8 and Q4, against dequantize(w) in double, and
//     bitwise against tensor::matmul(a, dequantize(w)) at 1 and 4 threads:
//     quantized B is a source of the f32 driver's small-m loop, so the two
//     products share the k-panel order and differ in no bit.
//
// Shapes: the full cross product m, n, k ∈ {1, 3, 4, 8, 16, 127, 128, 129,
// 133, 300} — every register-tile, panel and k-block edge the kernels have —
// and, for the dense products, two shapes wider than one 1024-column panel.
//
// Tolerance: operands enter the reference at their stored precision (bf16
// values widened exactly), so the only error left is the f32 accumulation
// every variant uses. For any summation order that is bounded by
// γ_{k+1}·Σ|a·b| (Higham, Accuracy and Stability, §3.1); the test allows
// (k + 2)·2⁻²⁴·Σ|a·b| per element (Σ|a·b| + |c₀| when accumulating onto
// c₀). A dropped, doubled or misplaced product is orders of magnitude above
// it.
//
// Run time: ~1–2 s per reference instance (8 instances) on a 4-core
// AVX-512 host at RelWithDebInfo, dominated by the double-precision
// reference; the bitwise instances take well under a second each.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ptdp/quant/quant.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::tensor {
namespace {

constexpr std::array<std::int64_t, 10> kSizes = {1,   3,   4,   8,   16,
                                                 127, 128, 129, 133, 300};

struct Shape3 {
  std::int64_t m, n, k;
};

// The kSizes cross product plus shapes crossing the column-panel edge.
std::vector<Shape3> dense_shapes() {
  std::vector<Shape3> out;
  for (const std::int64_t m : kSizes) {
    for (const std::int64_t n : kSizes) {
      for (const std::int64_t k : kSizes) out.push_back({m, n, k});
    }
  }
  out.push_back({3, 1100, 40});
  out.push_back({130, 1030, 300});
  return out;
}

// The product of logical A [m, k] and B [k, n] in double, and Σ|a·b| per
// element (the scale of the accumulation error bound).
struct Reference {
  std::vector<double> c, mag;
};

Reference naive(const std::vector<float>& a, const std::vector<float>& b,
                std::int64_t m, std::int64_t n, std::int64_t k) {
  Reference r{std::vector<double>(static_cast<std::size_t>(m * n), 0.0),
              std::vector<double>(static_cast<std::size_t>(m * n), 0.0)};
  for (std::int64_t i = 0; i < m; ++i) {
    double* c = r.c.data() + i * n;
    double* mag = r.mag.data() + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = a[static_cast<std::size_t>(i * k + p)];
      const float* brow = b.data() + p * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const double prod = av * static_cast<double>(brow[j]);
        c[j] += prod;
        mag[j] += std::fabs(prod);
      }
    }
  }
  return r;
}

// Random [rows, cols] values exactly representable in `dtype`.
std::vector<float> values(std::int64_t rows, std::int64_t cols, DType dtype,
                          Rng& rng) {
  const Tensor t = Tensor::randn({rows, cols}, rng).to(dtype).to(DType::kF32);
  return {t.data().begin(), t.data().end()};
}

std::vector<float> transpose(const std::vector<float>& v, std::int64_t rows,
                             std::int64_t cols) {
  std::vector<float> out(v.size());
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      out[static_cast<std::size_t>(j * rows + i)] =
          v[static_cast<std::size_t>(i * cols + j)];
    }
  }
  return out;
}

Tensor stored(const std::vector<float>& v, std::int64_t rows, std::int64_t cols,
              DType dtype) {
  return Tensor::from_vector({rows, cols}, v).to(dtype);
}

// Elements of `got` outside the bound. The first one is reported when
// `report` is set, so a broken kernel prints one line per variant.
int count_failures(const Tensor& got, const Reference& ref, std::int64_t k,
                   const std::string& what, bool report) {
  const auto g = got.data();
  const double eps = (static_cast<double>(k) + 2.0) * std::ldexp(1.0, -24);
  int failures = 0;
  for (std::size_t e = 0; e < ref.c.size(); ++e) {
    const double err = std::fabs(static_cast<double>(g[e]) - ref.c[e]);
    if (err <= eps * ref.mag[e]) continue;
    if (failures++ == 0 && report) {
      ADD_FAILURE() << what << " element " << e << ": got " << g[e] << ", want "
                    << ref.c[e] << " (|err| " << err << " > " << eps * ref.mag[e]
                    << ")";
    }
  }
  return failures;
}

std::string shape_name(std::int64_t m, std::int64_t n, std::int64_t k) {
  return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k);
}

struct DtypePair {
  DType a, b;
};

class DenseGemm : public ::testing::TestWithParam<DtypePair> {};

TEST_P(DenseGemm, NnNtTnMatchDoubleReference) {
  const auto [da, db] = GetParam();
  Rng rng(20);
  int failures[4] = {0, 0, 0, 0};  // NN, NT, TN, TN+=
  for (const auto [m, n, k] : dense_shapes()) {
    const std::vector<float> a = values(m, k, da, rng);
    const std::vector<float> b = values(k, n, db, rng);
    const Reference ref = naive(a, b, m, n, k);
    const std::string at = shape_name(m, n, k);
    failures[0] +=
        count_failures(matmul(stored(a, m, k, da), stored(b, k, n, db)), ref,
                       k, "NN " + at, failures[0] == 0);
    failures[1] += count_failures(
        matmul_nt(stored(a, m, k, da), stored(transpose(b, k, n), n, k, db)),
        ref, k, "NT " + at, failures[1] == 0);
    failures[2] += count_failures(
        matmul_tn(stored(transpose(a, m, k), k, m, da), stored(b, k, n, db)),
        ref, k, "TN " + at, failures[2] == 0);
    // Accumulating onto c0 adds c0 to the product and |c0| to the
    // magnitude the bound scales with.
    Tensor c = Tensor::randn({m, n}, rng);
    Reference acc = ref;
    const auto c0 = c.data();
    for (std::size_t e = 0; e < acc.c.size(); ++e) {
      acc.c[e] += c0[e];
      acc.mag[e] += std::fabs(static_cast<double>(c0[e]));
    }
    add_matmul_tn_(c, stored(transpose(a, m, k), k, m, da), stored(b, k, n, db));
    failures[3] += count_failures(c, acc, k, "TN+= " + at, failures[3] == 0);
  }
  EXPECT_EQ(failures[0], 0) << "NN";
  EXPECT_EQ(failures[1], 0) << "NT";
  EXPECT_EQ(failures[2], 0) << "TN";
  EXPECT_EQ(failures[3], 0) << "TN+=";
}

bool same_bits(const Tensor& got, const Tensor& want) {
  return got.same_shape(want) && std::memcmp(got.data().data(), want.data().data(),
                                             got.data().size_bytes()) == 0;
}

TEST_P(DenseGemm, TransposedOperandsBitwiseEqualNnOverMaterializedTranspose) {
  const auto [da, db] = GetParam();
  const std::size_t saved_threads = runtime::intra_op_threads();
  Rng rng(23);
  int mismatched_shapes = 0;
  for (const auto [m, n, k] : dense_shapes()) {
    const std::vector<float> a = values(m, k, da, rng);
    const std::vector<float> b = values(k, n, db, rng);
    const Tensor a_mk = stored(a, m, k, da), b_kn = stored(b, k, n, db);
    const Tensor a_km = stored(transpose(a, m, k), k, m, da);
    const Tensor b_nk = stored(transpose(b, k, n), n, k, db);
    const char* what = nullptr;
    for (const std::size_t threads : {1u, 4u}) {
      runtime::set_intra_op_threads(threads);
      const Tensor nn = matmul(a_mk, b_kn);
      Tensor acc = Tensor::zeros({m, n});
      add_matmul_tn_(acc, a_km, b_kn);
      if (!same_bits(matmul_nt(a_mk, b_nk), nn)) {
        what = "NT";
      } else if (!same_bits(matmul_tn(a_km, b_kn), nn)) {
        what = "TN";
      } else if (!same_bits(acc, nn)) {
        what = "TN+= onto zeros";
      } else {
        continue;
      }
      if (mismatched_shapes == 0) {
        ADD_FAILURE() << what << " differs from NN at " << shape_name(m, n, k)
                      << ", " << threads << " threads";
      }
      break;
    }
    mismatched_shapes += what != nullptr ? 1 : 0;
  }
  runtime::set_intra_op_threads(saved_threads);
  EXPECT_EQ(mismatched_shapes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    GemmConformance, DenseGemm,
    ::testing::Values(DtypePair{DType::kF32, DType::kF32},
                      DtypePair{DType::kF32, DType::kBf16},
                      DtypePair{DType::kBf16, DType::kF32},
                      DtypePair{DType::kBf16, DType::kBf16}),
    [](const ::testing::TestParamInfo<DtypePair>& info) {
      return std::string(dtype_name(info.param.a)) + "x" +
             dtype_name(info.param.b);
    });

class QuantGemm : public ::testing::TestWithParam<QuantKind> {};

TEST_P(QuantGemm, MatchesDoubleReferenceOfDequantizedWeight) {
  const QuantKind kind = GetParam();
  Rng rng(21);
  int failures = 0;
  for (const std::int64_t m : kSizes) {
    for (const std::int64_t n : kSizes) {
      for (const std::int64_t k : kSizes) {
        const std::vector<float> a = values(m, k, DType::kF32, rng);
        const quant::QuantizedWeight w =
            quant::quantize(Tensor::randn({k, n}, rng), kind, 32);
        const Tensor wd = quant::dequantize(w);
        const Reference ref =
            naive(a, {wd.data().begin(), wd.data().end()}, m, n, k);
        failures += count_failures(
            quant::matmul(Tensor::from_vector({m, k}, a), w), ref, k,
            std::string(quant_kind_name(kind)) + " " + shape_name(m, n, k),
            failures == 0);
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST_P(QuantGemm, BitwiseEqualsF32ProductOfDequantizedWeight) {
  const QuantKind kind = GetParam();
  const std::size_t saved_threads = runtime::intra_op_threads();
  Rng rng(22);
  int mismatched_shapes = 0;
  for (const std::int64_t m : kSizes) {
    for (const std::int64_t n : kSizes) {
      for (const std::int64_t k : kSizes) {
        const Tensor a = Tensor::randn({m, k}, rng);
        const quant::QuantizedWeight w =
            quant::quantize(Tensor::randn({k, n}, rng), kind, 32);
        const Tensor wd = quant::dequantize(w);
        bool mismatch = false;
        for (const std::size_t threads : {1u, 4u}) {
          runtime::set_intra_op_threads(threads);
          const Tensor got = quant::matmul(a, w);
          const Tensor want = matmul(a, wd);
          if (std::memcmp(got.data().data(), want.data().data(),
                          got.data().size_bytes()) == 0) {
            continue;
          }
          if (!mismatch && mismatched_shapes == 0) {
            ADD_FAILURE() << quant_kind_name(kind) << " " << shape_name(m, n, k)
                          << " at " << threads << " threads: max |diff| "
                          << max_abs_diff(got, want);
          }
          mismatch = true;
        }
        mismatched_shapes += mismatch ? 1 : 0;
      }
    }
  }
  runtime::set_intra_op_threads(saved_threads);
  EXPECT_EQ(mismatched_shapes, 0);
}

INSTANTIATE_TEST_SUITE_P(GemmConformance, QuantGemm,
                         ::testing::Values(QuantKind::kInt8, QuantKind::kQ4),
                         [](const ::testing::TestParamInfo<QuantKind>& info) {
                           return std::string(quant_kind_name(info.param));
                         });

}  // namespace
}  // namespace ptdp::tensor
