// GEMM conformance suite: every GEMM entry point is checked element by
// element against a double-precision naive product of the same stored
// operands.
//
//   * tensor::matmul / matmul_nt / matmul_tn (NN, NT, TN) for each
//     (f32|bf16)² operand pair. m spans the small-m sliver path (m < 128)
//     and the row-panel path; bf16 × bf16 takes the AMX kernel where the
//     host has one.
//   * quant::matmul at int8 and Q4, against dequantize(w) in double, and
//     bitwise against tensor::matmul(a, dequantize(w)) at 1 and 4 threads:
//     quantized B is a source of the f32 driver's small-m loop, so the two
//     products share the k-panel order and differ in no bit.
//
// Shapes: the full cross product m, n, k ∈ {1, 3, 4, 8, 16, 127, 128, 129,
// 133, 300} — every register-tile, panel and k-block edge the kernels have.
//
// Tolerance: operands enter the reference at their stored precision (bf16
// values widened exactly), so the only error left is the f32 accumulation
// every variant uses. For any summation order that is bounded by
// γ_{k+1}·Σ|a·b| (Higham, Accuracy and Stability, §3.1); the test allows
// (k + 2)·2⁻²⁴·Σ|a·b| per element. A dropped, doubled or misplaced product
// is orders of magnitude above it.
//
// Run time: ~1–2 s per instance (8 instances) on a 4-core AVX-512 host at
// RelWithDebInfo, dominated by the double-precision reference.

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
  int failures[3] = {0, 0, 0};  // NN, NT, TN
  for (const std::int64_t m : kSizes) {
    for (const std::int64_t n : kSizes) {
      for (const std::int64_t k : kSizes) {
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
      }
    }
  }
  EXPECT_EQ(failures[0], 0) << "NN";
  EXPECT_EQ(failures[1], 0) << "NT";
  EXPECT_EQ(failures[2], 0) << "TN";
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
