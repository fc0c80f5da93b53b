#include "ptdp/tensor/quant_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::tensor {

namespace {

using runtime::parallel_for;

// Same fan-out threshold the f32 GEMM driver uses: below this many FLOPs
// per chunk the pool dispatch is not worth it.
constexpr std::int64_t kQuantGrainFlops = 1 << 22;

std::int64_t payload_row_bytes(QuantKind kind) {
  return kind == QuantKind::kQ4 ? kQuantPanel / 2 : kQuantPanel;
}

// Asymmetric affine parameters of one (group, column): s and integer z such
// that q = round(w/s) + z lands in [0, Q] for every w in [mn, mx] and
// ŵ = (q - z)·s has error ≤ s/2 ≤ (mx - mn)/Q. The scale is first set to
// the exact range/Q, the zero-point rounded to an integer, then the scale
// widened just enough that the *rounded* z still covers both extremes —
// clamping never distorts in-range weights.
void affine_params(float mn, float mx, std::int64_t levels, float& s_out,
                   std::uint8_t& z_out) {
  if (mx <= mn) {
    // Degenerate group (constant value v): s = v, z = 0, q = 1 reproduces v
    // exactly; all-zero groups get s = 0.
    s_out = mx;
    z_out = 0;
    return;
  }
  const float q = static_cast<float>(levels);
  const float s0 = (mx - mn) / q;
  const long z = std::clamp<long>(std::lround(-mn / s0), 0, levels);
  float s = s0;
  if (z > 0) s = std::max(s, -mn / static_cast<float>(z));
  if (z < levels) s = std::max(s, mx / static_cast<float>(levels - z));
  s_out = s;
  z_out = static_cast<std::uint8_t>(z);
}

std::uint8_t quantize_value(float w, float s, std::uint8_t z, std::int64_t levels) {
  if (s == 0.0f) return 0;
  const long q =
      std::clamp<long>(std::lround(w / s) + static_cast<long>(z), 0, levels);
  return static_cast<std::uint8_t>(q);
}

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define PTDP_QUANT_VEC 1
// Two 8-lane halves cover one 16-column panel; aligned(4) keeps loads legal
// straight off the float-aligned scales array (the payload halves go
// through memcpy'd u8x8 vectors, so payload alignment never matters).
using VecF8 = float __attribute__((vector_size(8 * sizeof(float)),
                                   aligned(alignof(float))));
using VecI8 = std::int32_t __attribute__((vector_size(8 * sizeof(std::int32_t)),
                                          aligned(alignof(float))));
using VecU8x8 = std::uint8_t __attribute__((vector_size(8), aligned(1)));

inline VecU8x8 load_u8x8(const std::uint8_t* p) {
  VecU8x8 v;
  std::memcpy(&v, p, 8);
  return v;
}
// u8 -> i32 -> f32 (vpmovzxbd + vcvtdq2ps on AVX2): GCC scalarizes the
// direct u8 -> f32 convertvector into 8 vpextrb/vcvtusi2ss pairs, which
// costs more than the FMAs it feeds. Both routes are exact for 0..255.
inline VecF8 cvt_f8(VecU8x8 q) {
  return __builtin_convertvector(__builtin_convertvector(q, VecI8), VecF8);
}

// Load 8 packed u8 values straight to f32 lanes. GCC compiles the generic
// cvt_f8(load_u8x8(p)) route through a 64-bit integer register and extracts
// bytes one at a time when the source is a fresh memory load, so the int8
// payload stream (two of these per k step) needs the intrinsic form to get
// the single vpmovzxbd load it deserves. Zero-points load once per group and
// the q4 nibble path keeps its vector mask/shift form, which GCC already
// vectorizes; both routes are exact for 0..255.
#if defined(__AVX2__)
inline VecF8 load_q8_f32(const std::uint8_t* p) {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return (VecF8)_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b));
}
#else
inline VecF8 load_q8_f32(const std::uint8_t* p) { return cvt_f8(load_u8x8(p)); }
#endif

// One 16-column panel x MB rows: acc[i] += a[i, kk] * (q[kk] - z)*s over all
// of k. Scales/zero-points load once per group; the inner loop is unpack +
// two FMAs per half. kQ4 splits each byte into lo/hi nibbles = columns
// j / j+8, which is why the pack layout interleaves that way.
template <int MB, bool kQ4>
void qgemm_block(const float* __restrict a, std::int64_t lda, std::int64_t k,
                 std::int64_t group, const std::uint8_t* __restrict pay,
                 const float* __restrict sc, const std::uint8_t* __restrict zp,
                 std::int64_t meta_stride, float* __restrict out) {
  VecF8 lo[MB], hi[MB];
  for (int i = 0; i < MB; ++i) {
    lo[i] = VecF8{};
    hi[i] = VecF8{};
  }
  const VecU8x8 nib_mask = {15, 15, 15, 15, 15, 15, 15, 15};
  const std::int64_t ngroups = k / group;
  for (std::int64_t gi = 0; gi < ngroups; ++gi) {
    const float* s = sc + gi * meta_stride;
    const std::uint8_t* z = zp + gi * meta_stride;
    const VecF8 slo = *reinterpret_cast<const VecF8*>(s);
    const VecF8 shi = *reinterpret_cast<const VecF8*>(s + 8);
    const VecF8 zlo = cvt_f8(load_u8x8(z));
    const VecF8 zhi = cvt_f8(load_u8x8(z + 8));
    const std::int64_t k1 = (gi + 1) * group;
    for (std::int64_t kk = gi * group; kk < k1; ++kk) {
      VecF8 qlo, qhi;
      if constexpr (kQ4) {
        const VecU8x8 raw = load_u8x8(pay + kk * 8);
        qlo = cvt_f8(raw & nib_mask);
        qhi = cvt_f8(raw >> 4);
      } else {
        qlo = load_q8_f32(pay + kk * 16);
        qhi = load_q8_f32(pay + kk * 16 + 8);
      }
      const VecF8 wlo = (qlo - zlo) * slo;
      const VecF8 whi = (qhi - zhi) * shi;
      for (int i = 0; i < MB; ++i) {
        const float av = a[i * lda + kk];
        lo[i] += av * wlo;
        hi[i] += av * whi;
      }
    }
  }
  for (int i = 0; i < MB; ++i) {
    *reinterpret_cast<VecF8*>(out + i * kQuantPanel) = lo[i];
    *reinterpret_cast<VecF8*>(out + i * kQuantPanel + 8) = hi[i];
  }
}
#else
// Portable fallback: scalar dequant inside the same panel/group walk, so the
// layout contract and accumulation order are identical to the vector path.
template <int MB, bool kQ4>
void qgemm_block(const float* __restrict a, std::int64_t lda, std::int64_t k,
                 std::int64_t group, const std::uint8_t* __restrict pay,
                 const float* __restrict sc, const std::uint8_t* __restrict zp,
                 std::int64_t meta_stride, float* __restrict out) {
  float acc[MB][kQuantPanel] = {};
  const std::int64_t ngroups = k / group;
  for (std::int64_t gi = 0; gi < ngroups; ++gi) {
    const float* s = sc + gi * meta_stride;
    const std::uint8_t* z = zp + gi * meta_stride;
    const std::int64_t k1 = (gi + 1) * group;
    for (std::int64_t kk = gi * group; kk < k1; ++kk) {
      float w[kQuantPanel];
      for (int j = 0; j < kQuantPanel; ++j) {
        std::uint8_t q;
        if constexpr (kQ4) {
          const std::uint8_t raw = pay[kk * 8 + (j & 7)];
          q = j < 8 ? (raw & 0x0F) : (raw >> 4);
        } else {
          q = pay[kk * 16 + j];
        }
        w[j] = (static_cast<float>(q) - static_cast<float>(z[j])) * s[j];
      }
      for (int i = 0; i < MB; ++i) {
        const float av = a[i * lda + kk];
        for (int j = 0; j < kQuantPanel; ++j) acc[i][j] += av * w[j];
      }
    }
  }
  for (int i = 0; i < MB; ++i) {
    for (int j = 0; j < kQuantPanel; ++j) out[i * kQuantPanel + j] = acc[i][j];
  }
}
#endif

template <bool kQ4>
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
           std::int64_t lda, const std::uint8_t* payload, const float* scales,
           const std::uint8_t* zeros, std::int64_t group, float* c,
           std::int64_t ldc) {
  PTDP_CHECK_GT(group, 0);
  PTDP_CHECK_EQ(k % group, 0) << "group must divide k";
  const std::int64_t npanels = quant_num_panels(n);
  const std::int64_t meta_stride = npanels * kQuantPanel;
  const std::int64_t row_bytes = kQ4 ? kQuantPanel / 2 : kQuantPanel;
  const std::int64_t panel_flops = 2 * m * k * kQuantPanel;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kQuantGrainFlops / std::max<std::int64_t>(panel_flops, 1));
  parallel_for(0, npanels, grain, [&](std::int64_t p0, std::int64_t p1) {
    alignas(32) float scratch[4 * kQuantPanel];
    for (std::int64_t jp = p0; jp < p1; ++jp) {
      const std::uint8_t* pay = payload + jp * k * row_bytes;
      const float* sc = scales + jp * kQuantPanel;
      const std::uint8_t* zp = zeros + jp * kQuantPanel;
      const std::int64_t nr = std::min(kQuantPanel, n - jp * kQuantPanel);
      auto store = [&](std::int64_t i0, int mb) {
        for (int r = 0; r < mb; ++r) {
          std::memcpy(c + (i0 + r) * ldc + jp * kQuantPanel,
                      scratch + r * kQuantPanel,
                      static_cast<std::size_t>(nr) * sizeof(float));
        }
      };
      std::int64_t i = 0;
      for (; i + 4 <= m; i += 4) {
        qgemm_block<4, kQ4>(a + i * lda, lda, k, group, pay, sc, zp, meta_stride,
                            scratch);
        store(i, 4);
      }
      for (; i + 2 <= m; i += 2) {
        qgemm_block<2, kQ4>(a + i * lda, lda, k, group, pay, sc, zp, meta_stride,
                            scratch);
        store(i, 2);
      }
      for (; i < m; ++i) {
        qgemm_block<1, kQ4>(a + i * lda, lda, k, group, pay, sc, zp, meta_stride,
                            scratch);
        store(i, 1);
      }
    }
  });
}

}  // namespace

const char* quant_kind_name(QuantKind kind) {
  return kind == QuantKind::kQ4 ? "q4" : "int8";
}

std::int64_t quant_levels(QuantKind kind) {
  return kind == QuantKind::kQ4 ? 15 : 255;
}

std::int64_t quant_payload_bytes(QuantKind kind, std::int64_t k, std::int64_t n) {
  return k * quant_num_panels(n) * payload_row_bytes(kind);
}

std::int64_t quant_meta_elems(std::int64_t k, std::int64_t n, std::int64_t group) {
  PTDP_CHECK_GT(group, 0);
  PTDP_CHECK_EQ(k % group, 0) << "group must divide k";
  return (k / group) * quant_num_panels(n) * kQuantPanel;
}

void quant_pack(QuantKind kind, const float* w, std::int64_t k, std::int64_t n,
                std::int64_t group, std::uint8_t* payload, float* scales,
                std::uint8_t* zeros) {
  const std::int64_t levels = quant_levels(kind);
  const std::int64_t npanels = quant_num_panels(n);
  const std::int64_t meta_stride = npanels * kQuantPanel;
  const std::int64_t row_bytes = payload_row_bytes(kind);
  const std::int64_t ngroups = quant_meta_elems(k, n, group) / meta_stride;
  // Panels are independent, so pack-at-load parallelizes without changing
  // a single output byte.
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 18) / std::max<std::int64_t>(k, 1));
  parallel_for(0, npanels, grain, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t jp = p0; jp < p1; ++jp) {
      float s[kQuantPanel];
      std::uint8_t z[kQuantPanel];
      for (std::int64_t gi = 0; gi < ngroups; ++gi) {
        for (std::int64_t j = 0; j < kQuantPanel; ++j) {
          const std::int64_t col = jp * kQuantPanel + j;
          if (col >= n) {
            s[j] = 0.0f;
            z[j] = 0;
            continue;
          }
          float mn = w[gi * group * n + col];
          float mx = mn;
          for (std::int64_t kk = gi * group + 1; kk < (gi + 1) * group; ++kk) {
            const float v = w[kk * n + col];
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
          affine_params(mn, mx, levels, s[j], z[j]);
        }
        float* sc = scales + (gi * npanels + jp) * kQuantPanel;
        std::uint8_t* zp = zeros + (gi * npanels + jp) * kQuantPanel;
        std::copy_n(s, kQuantPanel, sc);
        std::copy_n(z, kQuantPanel, zp);
        for (std::int64_t kk = gi * group; kk < (gi + 1) * group; ++kk) {
          std::uint8_t q[kQuantPanel];
          for (std::int64_t j = 0; j < kQuantPanel; ++j) {
            const std::int64_t col = jp * kQuantPanel + j;
            q[j] = col < n ? quantize_value(w[kk * n + col], s[j], z[j], levels) : 0;
          }
          std::uint8_t* dst = payload + (jp * k + kk) * row_bytes;
          if (kind == QuantKind::kQ4) {
            for (std::int64_t j = 0; j < 8; ++j) {
              dst[j] = static_cast<std::uint8_t>(q[j] | (q[j + 8] << 4));
            }
          } else {
            std::copy_n(q, kQuantPanel, dst);
          }
        }
      }
    }
  });
}

void quant_unpack(QuantKind kind, const std::uint8_t* payload, const float* scales,
                  const std::uint8_t* zeros, std::int64_t k, std::int64_t n,
                  std::int64_t group, float* w) {
  const std::int64_t npanels = quant_num_panels(n);
  const std::int64_t row_bytes = payload_row_bytes(kind);
  for (std::int64_t jp = 0; jp < npanels; ++jp) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int64_t gi = kk / group;
      const float* s = scales + (gi * npanels + jp) * kQuantPanel;
      const std::uint8_t* z = zeros + (gi * npanels + jp) * kQuantPanel;
      const std::uint8_t* src = payload + (jp * k + kk) * row_bytes;
      const std::int64_t nr = std::min(kQuantPanel, n - jp * kQuantPanel);
      for (std::int64_t j = 0; j < nr; ++j) {
        std::uint8_t q;
        if (kind == QuantKind::kQ4) {
          const std::uint8_t raw = src[j & 7];
          q = j < 8 ? (raw & 0x0F) : (raw >> 4);
        } else {
          q = src[j];
        }
        w[kk * n + jp * kQuantPanel + j] =
            (static_cast<float>(q) - static_cast<float>(z[j])) * s[j];
      }
    }
  }
}

void gemm_f32xq(QuantKind kind, std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, std::int64_t lda, const std::uint8_t* payload,
                const float* scales, const std::uint8_t* zeros, std::int64_t group,
                float* c, std::int64_t ldc) {
  if (kind == QuantKind::kQ4) {
    qgemm<true>(m, n, k, a, lda, payload, scales, zeros, group, c, ldc);
  } else {
    qgemm<false>(m, n, k, a, lda, payload, scales, zeros, group, c, ldc);
  }
}

}  // namespace ptdp::tensor
