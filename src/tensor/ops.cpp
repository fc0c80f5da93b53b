#include "ptdp/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__AVX2__) || defined(__AMX_TILE__)
#include <immintrin.h>
#endif

#if defined(__AMX_BF16__) && defined(__AMX_TILE__) && defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#define PTDP_GEMM_NATIVE_BF16 1
#else
#define PTDP_GEMM_NATIVE_BF16 0
#endif

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/quant_ops.hpp"

namespace ptdp::tensor {

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

using runtime::parallel_for;

// Grain sizing: chunks below ~32K elements run serially inline, so the
// tiny tensors used by tests never pay fan-out overhead.
constexpr std::int64_t kElemGrain = 1 << 15;

std::int64_t row_grain(std::int64_t n) {
  return std::max<std::int64_t>(1, kElemGrain / std::max<std::int64_t>(n, 1));
}

// ---- packed, cache-blocked GEMM ------------------------------------------------
//
// All three variants (NN/NT/TN) run through one driver that views A as
// A(i,p) = a[i*rsa + p*csa] and B as B(p,j) = b[p*rsb + j*csb]; the packing
// step absorbs the transpose, so the microkernel only ever sees a packed A
// micro-panel and a B sliver whose kNR columns are contiguous (this is also
// what removed the old data-dependent sparsity branch in the TN kernel —
// gradient GEMM time no longer depends on activation sparsity). C is fully
// OVERWRITTEN (beta = 0): the first k-panel stores its tile, later panels
// accumulate — so callers can hand in Tensor::empty storage and skip the
// zero-fill memset. In accumulate mode (beta = 1, add_matmul_tn_) the
// first panel adds too, so a weight grad takes its product in place.
//
// Blocking follows the BLIS decomposition: pack a KCxNR B sliver and an
// MRxKC A micro-panel into contiguous scratch (zero-padded to full tiles so
// edge shapes take the same code path), accumulate an MRxNR register tile
// with a plain FMA-friendly accumulator array the compiler vectorizes at
// -O3, then add the tile into C. Row panels (MC rows) are distributed over
// the intra-op pool; the kc loop stays serial and each C element is only
// ever touched by the thread owning its row panel, so accumulation order —
// and therefore the bit pattern of the result — is independent of the
// thread count. Products with a single row panel take the small-m path
// (gemm_small_m), which splits column slivers instead and reads row-major
// f32 B in place, bitwise equal to the row-panel path. Quantized weights
// (gemm_f32xq) are one more B source of that path at every m, so they
// multiply bitwise like their dequantized f32 copy. bf16 x bf16 runs on AMX
// where the platform has it: three drivers in all.

constexpr std::int64_t kMR = 8;     // micro-tile rows
constexpr std::int64_t kNR = 16;    // micro-tile cols (one AVX-512 / two AVX2 vectors)
constexpr std::int64_t kMC = 128;   // row-panel height (multiple of kMR)
constexpr std::int64_t kKC = 256;   // k-panel depth
constexpr std::int64_t kNC = 1024;  // column-panel width (multiple of kNR)

// Below this many FLOPs per row-panel chunk the fan-out is not worth it.
constexpr std::int64_t kGemmGrainFlops = 1 << 22;

// The dtype axis enters the GEMM here and only here: source panels may be
// f32 or bf16, and the packing step widens bf16 inline (a shift, fused
// into the pack loop the compiler vectorizes). The microkernel below never
// changes — it always consumes f32 panels and accumulates in f32 — so
// bf16 inputs keep the bitwise-deterministic-across-threads property for
// free, and the uplift comes from halving the A/B bytes the pack loops
// stream from memory.
inline float load_f32(const float* p) { return *p; }
inline float load_f32(const bf16_t* p) { return bf16_to_f32(*p); }

// A block [i0, i0+mc) x [p0, p0+kc) packed as ceil(mc/kMR) micro-panels,
// each kc steps of kMR contiguous row elements, zero-padded to kMR.
template <typename TA>
void pack_a_block(const TA* a, std::int64_t rsa, std::int64_t csa,
                  std::int64_t i0, std::int64_t mc, std::int64_t p0,
                  std::int64_t kc, float* ap) {
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t mr = std::min(kMR, mc - ir);
    float* dst = ap + ir * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const TA* src = a + (i0 + ir) * rsa + (p0 + p) * csa;
      for (std::int64_t i = 0; i < mr; ++i) dst[p * kMR + i] = load_f32(src + i * rsa);
      for (std::int64_t i = mr; i < kMR; ++i) dst[p * kMR + i] = 0.0f;
    }
  }
}

// B panel [p0, p0+kc) x [j0, j0+nc) packed as ceil(nc/kNR) slivers, each kc
// steps of kNR contiguous column elements, zero-padded to kNR.
template <typename TB>
void pack_b_panel(const TB* b, std::int64_t rsb, std::int64_t csb,
                  std::int64_t p0, std::int64_t kc, std::int64_t j0,
                  std::int64_t nc, float* bp) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t nr = std::min(kNR, nc - jr);
    float* dst = bp + jr * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const TB* src = b + (p0 + p) * rsb + (j0 + jr) * csb;
      for (std::int64_t j = 0; j < nr; ++j) dst[p * kNR + j] = load_f32(src + j * csb);
      for (std::int64_t j = nr; j < kNR; ++j) dst[p * kNR + j] = 0.0f;
    }
  }
}

// acc[kMR][kNR] = Ap · B over kc steps, where B row p starts at bp + p*ldb:
// ldb = kNR for a packed sliver, the source row stride when B is read in
// place.
#if defined(__GNUC__) || defined(__clang__)
#define PTDP_GEMM_VEC 1
// One vector register file's worth of accumulators: kMR row vectors of kNR
// lanes each, updated by broadcast(a) * b FMAs. Writing the tile with vector
// extensions (rather than hoping the auto-vectorizer picks the right axis)
// is what keeps the accumulators in registers across the k loop. aligned(4)
// lets the loads come straight off float-aligned panels or source rows.
using VecNR = float __attribute__((vector_size(sizeof(float) * kNR),
                                   aligned(alignof(float))));

void micro_kernel(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, std::int64_t ldb,
                  float* __restrict acc) {
  static_assert(kMR == 8, "accumulator bank below is written for kMR == 8");
  VecNR c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMR;
    const VecNR b = *reinterpret_cast<const VecNR*>(bp + p * ldb);
    c0 += arow[0] * b;
    c1 += arow[1] * b;
    c2 += arow[2] * b;
    c3 += arow[3] * b;
    c4 += arow[4] * b;
    c5 += arow[5] * b;
    c6 += arow[6] * b;
    c7 += arow[7] * b;
  }
  const VecNR cs[kMR] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (std::int64_t i = 0; i < kMR; ++i) {
    *reinterpret_cast<VecNR*>(acc + i * kNR) = cs[i];
  }
}
#else
#define PTDP_GEMM_VEC 0
// Portable lanes with the vector build's per-lane arithmetic.
struct VecNR {
  float l[kNR] = {};
};
inline VecNR operator*(VecNR a, VecNR b) {
  for (std::int64_t i = 0; i < kNR; ++i) a.l[i] *= b.l[i];
  return a;
}
inline VecNR operator*(float a, VecNR b) {
  for (float& x : b.l) x *= a;
  return b;
}
inline VecNR& operator+=(VecNR& a, VecNR b) {
  for (std::int64_t i = 0; i < kNR; ++i) a.l[i] += b.l[i];
  return a;
}

void micro_kernel(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, std::int64_t ldb,
                  float* __restrict acc) {
  std::fill_n(acc, kMR * kNR, 0.0f);
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMR;
    const float* brow = bp + p * ldb;
    for (std::int64_t i = 0; i < kMR; ++i) {
      for (std::int64_t j = 0; j < kNR; ++j) {
        acc[i * kNR + j] += arow[i] * brow[j];
      }
    }
  }
}
#endif

// n <= kNR floats from p; lanes past n are 0. A ragged n takes a masked
// load (or a lane loop), never a memcpy call: a call in a hot loop spills
// every accumulator around it.
inline VecNR load_lanes(const float* p, std::int64_t n) {
  VecNR v{};
  if (n == kNR) {
    std::memcpy(&v, p, sizeof v);
  } else {
#if PTDP_GEMM_VEC && defined(__AVX512F__)
    v = (VecNR)_mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1), p);
#else
    float t[kNR] = {};
    for (std::int64_t l = 0; l < n; ++l) t[l] = p[l];
    std::memcpy(&v, t, sizeof v);
#endif
  }
  return v;
}

// The first n <= kNR lanes of v to p.
inline void store_lanes(float* p, const VecNR& v, std::int64_t n) {
  if (n == kNR) {
    std::memcpy(p, &v, sizeof v);
  } else {
#if PTDP_GEMM_VEC && defined(__AVX512F__)
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1), (__m512)v);
#else
    float t[kNR];
    std::memcpy(t, &v, sizeof t);
    for (std::int64_t l = 0; l < n; ++l) p[l] = t[l];
#endif
  }
}

// Lands the live mr x nr corner of a micro-tile in C (row stride ldc): the
// first k-panel overwrites (beta = 0), later panels add.
void store_tile(const float* acc, std::int64_t mr, std::int64_t nr, float* c,
                std::int64_t ldc, bool first) {
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    if (first) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[i * kNR + j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += acc[i * kNR + j];
    }
  }
}

// Quantized B (DESIGN.md §17) is read where it sits: a packed column panel
// is exactly one sliver.
static_assert(kQuantPanel == kNR, "a quantized panel must be one B sliver");

#if PTDP_GEMM_VEC
using VecNI = std::int32_t __attribute__((vector_size(sizeof(float) * kNR),
                                          aligned(alignof(float))));
using VecNU8 = std::uint8_t __attribute__((vector_size(kNR), aligned(1)));

// kNR u8 codes as f32 lanes; exact for every code. GCC lowers the generic
// u8 -> i32 convert of a freshly loaded vector to one byte extract per lane,
// which costs more than the FMAs it feeds, so x86 spells out vpmovzxbd (the
// all-lanes maskz form: GCC 12's unmasked one trips -Wmaybe-uninitialized).
inline VecNR codes_f32(VecNU8 q) {
#if defined(__AVX512F__)
  const VecNI qi = (VecNI)_mm512_maskz_cvtepu8_epi32(0xFFFF, (__m128i)q);
#elif defined(__AVX2__)
  const __m256i lo = _mm256_cvtepu8_epi32((__m128i)q);
  const __m256i hi = _mm256_cvtepu8_epi32(_mm_srli_si128((__m128i)q, 8));
  VecNI qi;
  std::memcpy(&qi, &lo, sizeof lo);
  std::memcpy(reinterpret_cast<char*>(&qi) + sizeof lo, &hi, sizeof hi);
#else
  const VecNI qi = __builtin_convertvector(q, VecNI);
#endif
  return __builtin_convertvector(qi, VecNR);
}

// One payload row of a quantized sliver, in column order: int8 stores the
// kNR codes as bytes; q4 stores columns j and j + 8 in the low and high
// nibble of byte j.
template <bool kQ4>
inline VecNR load_codes(const std::uint8_t* p) {
  VecNU8 q;
  if constexpr (kQ4) {
    std::uint8_t both[kNR];
    std::memcpy(both, p, kNR / 2);
    std::memcpy(both + kNR / 2, p, kNR / 2);
    std::memcpy(&q, both, kNR);
    constexpr VecNU8 kShift = {0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4};
    q = (q >> kShift) & 0x0F;
  } else {
    std::memcpy(&q, p, kNR);
  }
  return codes_f32(q);
}

// acc[MB][kNR] = A · ŵ over the k panel [k0, k0 + kc) of quantized panel
// jp, A read in place (a points at row 0, column k0; row stride lda). Each
// k step dequantizes its kNR weights as (q - z)·s, quant_unpack's
// arithmetic, then takes micro_kernel's broadcast(a)·b accumulate, so a
// tile equals micro_kernel over the dequantized sliver bit for bit. A
// quantization group may end inside the panel: scale and zero-point step
// per group segment.
template <int MB, bool kQ4>
void quant_micro_kernel(const QuantView& w, std::int64_t jp, std::int64_t k0,
                        std::int64_t kc, const float* __restrict a,
                        std::int64_t lda, float* __restrict acc) {
  constexpr std::int64_t kRowBytes = kQ4 ? kNR / 2 : kNR;
  const std::int64_t meta_stride = quant_num_panels(w.n) * kNR;
  const std::uint8_t* pay = w.payload + (jp * w.k + k0) * kRowBytes;
  VecNR c[MB];
  for (int i = 0; i < MB; ++i) c[i] = VecNR{};
  for (std::int64_t p = 0; p < kc;) {
    const std::int64_t g = (k0 + p) / w.group;
    const std::int64_t seg_end = std::min(kc, (g + 1) * w.group - k0);
    const std::int64_t meta = g * meta_stride + jp * kNR;
    const VecNR s = *reinterpret_cast<const VecNR*>(w.scales + meta);
    VecNU8 zq;
    std::memcpy(&zq, w.zeros + meta, kNR);
    const VecNR z = codes_f32(zq);
    for (; p < seg_end; ++p) {
      const VecNR b = (load_codes<kQ4>(pay + p * kRowBytes) - z) * s;
      for (int i = 0; i < MB; ++i) c[i] += a[i * lda + p] * b;
    }
  }
  for (int i = 0; i < MB; ++i) *reinterpret_cast<VecNR*>(acc + i * kNR) = c[i];
}

// C's sliver jp over the k panel [k0, k0 + kc), all m rows, in 8/4/2/1-row
// tiles landed through store_tile (nr live columns, row stride ldc).
template <bool kQ4>
void quant_sliver(const QuantView& w, std::int64_t jp, std::int64_t k0,
                  std::int64_t kc, std::int64_t m, const float* a,
                  std::int64_t lda, std::int64_t nr, float* c,
                  std::int64_t ldc, bool first) {
  static_assert(kMR == 8, "row tiles below are written for kMR == 8");
  for (std::int64_t ir = 0; ir < m;) {
    float acc[kMR * kNR];
    const float* ai = a + ir * lda + k0;
    const std::int64_t left = m - ir;
    const std::int64_t mr = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
    if (mr == 8) {
      quant_micro_kernel<8, kQ4>(w, jp, k0, kc, ai, lda, acc);
    } else if (mr == 4) {
      quant_micro_kernel<4, kQ4>(w, jp, k0, kc, ai, lda, acc);
    } else if (mr == 2) {
      quant_micro_kernel<2, kQ4>(w, jp, k0, kc, ai, lda, acc);
    } else {
      quant_micro_kernel<1, kQ4>(w, jp, k0, kc, ai, lda, acc);
    }
    store_tile(acc, mr, nr, c + ir * ldc, ldc, first);
    ir += mr;
  }
}
#else
// Portable builds dequantize whole slivers for the scalar micro_kernel.
void pack_b_panel(const QuantView* b, std::int64_t /*rsb*/, std::int64_t /*csb*/,
                  std::int64_t p0, std::int64_t kc, std::int64_t j0,
                  std::int64_t nc, float* bp) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    quant_unpack_panel(*b, (j0 + jr) / kNR, p0, kc, kNR, bp + jr * kc, kNR);
  }
}
#endif  // PTDP_GEMM_VEC

// Grow-only per-thread GEMM scratch, so steady-state calls neither allocate
// nor zero-fill. A thread_local resolves to the thread that names it: the
// caller must fetch shared_scratch() BEFORE its parallel_for and let the
// lambda capture the pointer, because naming it inside the lambda would give
// each worker its own, unpacked buffer.
template <typename T>
T* grow(std::vector<T>& buf, std::int64_t n) {
  if (buf.size() < static_cast<std::size_t>(n)) buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}
// Operand packed once by the calling thread and read by every task.
template <typename T = float>
T* shared_scratch(std::int64_t n) {
  thread_local std::vector<T> buf;
  return grow(buf, n);
}
// Operand packed by one task for its own use.
template <typename T = float>
T* task_scratch(std::int64_t n) {
  thread_local std::vector<T> buf;
  return grow(buf, n);
}

#if PTDP_GEMM_NATIVE_BF16
// Native bf16 path: when BOTH operands are bf16 and the kernel grants this
// process the AMX tile state (a one-time arch_prctl), the packed panels
// stay bf16 and the micro-tile contraction runs on the AMX matrix engine —
// tdpbf16ps multiplies a 16x32 bf16 A-tile by a 32-wide-by-16 pair-
// interleaved B-tile into a 16x16 f32 accumulator tile, ~5x the FLOP/s of
// the f32 FMA pipes on this substrate (measured in BENCH_tensor_ops.json).
// Numerics: bf16 products are exact in f32 (8-bit mantissas) and the tile
// engine accumulates in f32 in a fixed order, so per-element error is
// comparable to the widen-then-FMA path and the bf16 tolerance table
// covers both. The cache blocking (kMC/kKC/kNC) and the row-panel
// parallel_for partition are IDENTICAL to the f32 driver, and each C
// element's accumulation order is a pure function of the shape — results
// stay bitwise-deterministic across thread counts and run-to-run.
//
// Tile geometry: a 32x32 C block is held as 2x2 accumulator tiles
// (tmm0..3); each k step of 32 loads two A tiles (tmm4,5: 16 rows x 32
// bf16) and two B tiles (tmm6,7: 16 pair-rows x 16 columns x 2) and issues
// four tdpbf16ps. A packs row-major [row][k] (rows padded to 32, k padded
// to a multiple of 32 with zeros); B packs pair-interleaved
// [k/2][col][k&1] so consecutive k pairs sit in one tile row.

constexpr std::int64_t kAmxTile = 16;  // tile rows / f32 columns
constexpr std::int64_t kAmxMR = 32;    // C block rows  (2 tiles)
constexpr std::int64_t kAmxNR = 32;    // C block cols  (2 tiles)
constexpr std::int64_t kAmxK = 32;     // bf16 k-steps per tile op

// One-time per-process request for the AMX tile-data XSTATE component.
bool amx_tile_ready() {
  static const bool ok =
      syscall(SYS_arch_prctl, /*ARCH_REQ_XCOMP_PERM=*/0x1023,
              /*XFEATURE_XTILEDATA=*/18) == 0;
  return ok;
}

// All eight tiles configured 16 rows x 64 bytes; loaded once per thread
// (tile config is per-thread XSTATE and context-switches with it).
struct AmxTileConfig {
  std::uint8_t palette = 1, start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};

void amx_configure_thread() {
  thread_local bool configured = false;
  if (configured) return;
  AmxTileConfig cfg;
  for (int t = 0; t < 8; ++t) {
    cfg.rows[t] = kAmxTile;
    cfg.colsb[t] = 64;
  }
  _tile_loadconfig(&cfg);
  configured = true;
}

// A block [i0, i0+mc) x [p0, p0+kc) packed row-major with row stride
// kc_pad bf16, k zero-padded to a multiple of kAmxK and rows to kAmxMR.
// Every element is written, padding included, so the scratch is reused
// without a fill. Row-major A (NN, NT) copies row segments. A transposed A
// (TN: A(i, p) = a[p*csa + i]) holds its rows along i, so it goes through a
// kAmxK x kAmxK block on the stack: contiguous loads along i, contiguous
// stores along p.
void pack_a_block_bf16(const bf16_t* a, std::int64_t rsa, std::int64_t csa,
                       std::int64_t i0, std::int64_t mc, std::int64_t p0,
                       std::int64_t kc, std::int64_t kc_pad, bf16_t* ap) {
  const std::int64_t mc_pad = (mc + kAmxMR - 1) / kAmxMR * kAmxMR;
  if (rsa == 1 && csa != 1) {
    static_assert(kAmxMR % kAmxK == 0, "row padding must tile by kAmxK");
    for (std::int64_t ib = 0; ib < mc_pad; ib += kAmxK) {
      const std::int64_t ni = std::clamp<std::int64_t>(mc - ib, 0, kAmxK);
      for (std::int64_t pb = 0; pb < kc_pad; pb += kAmxK) {
        const std::int64_t np = std::clamp<std::int64_t>(kc - pb, 0, kAmxK);
        alignas(64) bf16_t blk[kAmxK][kAmxK];  // [p][i]
        for (std::int64_t p = 0; p < kAmxK; ++p) {
          const std::int64_t live = p < np ? ni : 0;
          if (live > 0) {
            std::memcpy(blk[p], a + (p0 + pb + p) * csa + i0 + ib,
                        static_cast<std::size_t>(live) * sizeof(bf16_t));
          }
          std::fill(blk[p] + live, blk[p] + kAmxK, bf16_t{0});
        }
        for (std::int64_t i = 0; i < kAmxK; ++i) {
          bf16_t* dst = ap + (ib + i) * kc_pad + pb;
          for (std::int64_t p = 0; p < kAmxK; ++p) dst[p] = blk[p][i];
        }
      }
    }
    return;
  }
  for (std::int64_t i = 0; i < mc_pad; ++i) {
    bf16_t* dst = ap + i * kc_pad;
    const std::int64_t live = i < mc ? kc : 0;
    const bf16_t* src = a + (i0 + i) * rsa + p0 * csa;
    if (csa == 1) {
      std::copy_n(src, live, dst);
    } else {
      for (std::int64_t p = 0; p < live; ++p) dst[p] = src[p * csa];
    }
    std::fill(dst + live, dst + kc_pad, bf16_t{0});
  }
}

#if defined(__has_builtin) && __has_builtin(__builtin_shufflevector)
#define PTDP_WORD_SHUFFLE 1
using VecW = std::uint32_t __attribute__((vector_size(64)));

// Swaps the off-diagonal H x H blocks of rows a = r[i], b = r[i + H] (i with
// bit H clear): one level of the recursive block transpose.
template <int H, std::size_t... I>
void swap_blocks(VecW& a, VecW& b, std::index_sequence<I...>) {
  const VecW lo = __builtin_shufflevector(a, b, ((I & H) ? I + 16 - H : I)...);
  const VecW hi = __builtin_shufflevector(a, b, ((I & H) ? I + 16 : I + H)...);
  a = lo;
  b = hi;
}
template <int H>
void swap_blocks(VecW* r) {
  for (int i = 0; i < 16; ++i) {
    if ((i & H) == 0) swap_blocks<H>(r[i], r[i + H], std::make_index_sequence<16>{});
  }
}
#else
#define PTDP_WORD_SHUFFLE 0
#endif

// Transposes a 16 x 16 block of 32-bit words: word j of dst row q is word
// q of source row j, where source row j is the bf16 pairs at src + j*lds
// (lds in bf16, any parity) and dst rows are ldd words apart.
void transpose_words16(const bf16_t* src, std::int64_t lds, std::uint32_t* dst,
                       std::int64_t ldd) {
#if PTDP_WORD_SHUFFLE
  VecW r[16];
  for (int j = 0; j < 16; ++j) std::memcpy(&r[j], src + j * lds, sizeof(VecW));
  swap_blocks<8>(r);
  swap_blocks<4>(r);
  swap_blocks<2>(r);
  swap_blocks<1>(r);
  for (int q = 0; q < 16; ++q) std::memcpy(dst + q * ldd, &r[q], sizeof(VecW));
#else
  for (std::int64_t q = 0; q < 16; ++q) {
    for (std::int64_t j = 0; j < 16; ++j) {
      std::memcpy(dst + q * ldd + j, src + j * lds + 2 * q, sizeof(std::uint32_t));
    }
  }
#endif
}

// B panel [p0, p0+kc) x [j0, j0+nc) packed as pair words: word
// bp[q * nc_pad + j] holds B(2q, j) in its low half and B(2q+1, j) in its
// high half (the [k/2][col][k&1] layout tdpbf16ps reads), zero-padded to
// (kc_pad, nc_pad). Every word is written, padding included. Row-major B
// (NN, and TN's dy) interleaves two source rows. A transposed B (NT:
// B(p, j) = b[j*csb + p]) already holds each pair as one 32-bit word of its
// row j, so it is moved as 16 x 16 word blocks, each transposed whole:
// contiguous loads along a source row, contiguous stores along a packed
// pair row. Edge blocks are staged zero-padded on the stack first.
void pack_b_panel_bf16(const bf16_t* b, std::int64_t rsb, std::int64_t csb,
                       std::int64_t p0, std::int64_t kc, std::int64_t kc_pad,
                       std::int64_t j0, std::int64_t nc, std::int64_t nc_pad,
                       std::uint32_t* bp) {
  const std::int64_t pairs = kc_pad / 2;
  if (rsb == 1 && csb != 1) {
    static_assert(kAmxK == 2 * kAmxTile && kAmxNR % kAmxTile == 0,
                  "pair and column padding must tile by kAmxTile");
    for (std::int64_t jb = 0; jb < nc_pad; jb += kAmxTile) {
      const std::int64_t nj = std::clamp<std::int64_t>(nc - jb, 0, kAmxTile);
      for (std::int64_t qb = 0; qb < pairs; qb += kAmxTile) {
        const std::int64_t np = std::clamp<std::int64_t>(kc - 2 * qb, 0, 2 * kAmxTile);
        const bf16_t* src = b + (j0 + jb) * csb + p0 + 2 * qb;
        std::uint32_t* dst = bp + qb * nc_pad + jb;
        if (nj == kAmxTile && np == 2 * kAmxTile) {
          transpose_words16(src, csb, dst, nc_pad);
          continue;
        }
        alignas(64) bf16_t blk[kAmxTile][2 * kAmxTile];  // [j][p]
        for (std::int64_t j = 0; j < kAmxTile; ++j) {
          const std::int64_t live = j < nj ? np : 0;
          std::copy_n(src + j * csb, live, blk[j]);
          std::fill(blk[j] + live, blk[j] + 2 * kAmxTile, bf16_t{0});
        }
        transpose_words16(&blk[0][0], 2 * kAmxTile, dst, nc_pad);
      }
    }
    return;
  }
  for (std::int64_t q = 0; q < pairs; ++q) {
    std::uint32_t* dst = bp + q * nc_pad;
    const std::int64_t p = 2 * q;
    const std::int64_t live = p < kc ? nc : 0;
    const bf16_t* lo = b + (p0 + p) * rsb + j0 * csb;
    const bf16_t* hi = p + 1 < kc ? lo + rsb : nullptr;
    if (hi != nullptr && csb == 1) {  // the common case, vectorized
      for (std::int64_t j = 0; j < live; ++j) {
        dst[j] = lo[j] | static_cast<std::uint32_t>(hi[j]) << 16;
      }
    } else {
      for (std::int64_t j = 0; j < live; ++j) {
        dst[j] = lo[j * csb] | (hi ? static_cast<std::uint32_t>(hi[j * csb]) << 16 : 0u);
      }
    }
    std::fill(dst + live, dst + nc_pad, 0u);
  }
}

void gemm_strided_bf16_native(std::int64_t m, std::int64_t n, std::int64_t k,
                              const bf16_t* a, std::int64_t rsa,
                              std::int64_t csa, const bf16_t* b,
                              std::int64_t rsb, std::int64_t csb, float* c,
                              bool accumulate) {
  const std::int64_t nc_max = std::min(n, kNC);
  const std::int64_t nc_pad_cap = (nc_max + kAmxNR - 1) / kAmxNR * kAmxNR;
  const std::int64_t kc_pad_cap = (kKC + kAmxK - 1) / kAmxK * kAmxK;
  std::uint32_t* bp = shared_scratch<std::uint32_t>(kc_pad_cap / 2 * nc_pad_cap);

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t nc_pad = (nc + kAmxNR - 1) / kAmxNR * kAmxNR;
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const std::int64_t kc_pad = (kc + kAmxK - 1) / kAmxK * kAmxK;
      pack_b_panel_bf16(b, rsb, csb, pc, kc, kc_pad, jc, nc, nc_pad, bp);

      const std::int64_t nblocks = (m + kMC - 1) / kMC;
      const std::int64_t block_flops = 2 * kMC * nc * kc;
      const std::int64_t grain =
          std::max<std::int64_t>(1, kGemmGrainFlops / std::max<std::int64_t>(
                                                          block_flops, 1));
      parallel_for(0, nblocks, grain, [&](std::int64_t blk0, std::int64_t blk1) {
        amx_configure_thread();
        bf16_t* ap = task_scratch<bf16_t>((kMC + kAmxMR - 1) / kAmxMR * kAmxMR *
                                          kc_pad_cap);
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t i0 = blk * kMC;
          const std::int64_t mc = std::min(kMC, m - i0);
          pack_a_block_bf16(a, rsa, csa, i0, mc, pc, kc, kc_pad, ap);
          for (std::int64_t jr = 0; jr < nc; jr += kAmxNR) {
            const std::int64_t nr = std::min(kAmxNR, nc - jr);
            const std::uint32_t* bcol = bp + jr;
            for (std::int64_t ir = 0; ir < mc; ir += kAmxMR) {
              const std::int64_t mr = std::min(kAmxMR, mc - ir);
              const bf16_t* arow = ap + ir * kc_pad;
              float* ctile = c + (i0 + ir) * n + jc + jr;
              const bool full = mr == kAmxMR && nr == kAmxNR;
              const bool first = pc == 0 && !accumulate;
              if (full && !first) {
                // Accumulate straight into C: seed the tiles from it.
                _tile_loadd(0, ctile, n * 4);
                _tile_loadd(1, ctile + kAmxTile, n * 4);
                _tile_loadd(2, ctile + kAmxTile * n, n * 4);
                _tile_loadd(3, ctile + kAmxTile * n + kAmxTile, n * 4);
              } else {
                _tile_zero(0);
                _tile_zero(1);
                _tile_zero(2);
                _tile_zero(3);
              }
              for (std::int64_t p = 0; p < kc_pad; p += kAmxK) {
                _tile_loadd(4, arow + p, kc_pad * 2);
                _tile_loadd(5, arow + kAmxTile * kc_pad + p, kc_pad * 2);
                const std::uint32_t* bk = bcol + (p / 2) * nc_pad;
                _tile_loadd(6, bk, nc_pad * 4);
                _tile_loadd(7, bk + kAmxTile, nc_pad * 4);
                _tile_dpbf16ps(0, 4, 6);
                _tile_dpbf16ps(1, 4, 7);
                _tile_dpbf16ps(2, 5, 6);
                _tile_dpbf16ps(3, 5, 7);
              }
              if (full) {
                _tile_stored(0, ctile, n * 4);
                _tile_stored(1, ctile + kAmxTile, n * 4);
                _tile_stored(2, ctile + kAmxTile * n, n * 4);
                _tile_stored(3, ctile + kAmxTile * n + kAmxTile, n * 4);
              } else {
                // Edge block: land in scratch, then copy/add the live part.
                alignas(64) float acc[kAmxMR * kAmxNR];
                _tile_stored(0, acc, kAmxNR * 4);
                _tile_stored(1, acc + kAmxTile, kAmxNR * 4);
                _tile_stored(2, acc + kAmxTile * kAmxNR, kAmxNR * 4);
                _tile_stored(3, acc + kAmxTile * kAmxNR + kAmxTile, kAmxNR * 4);
                for (std::int64_t i = 0; i < mr; ++i) {
                  float* crow = c + (i0 + ir + i) * n + jc + jr;
                  if (first) {
                    for (std::int64_t j = 0; j < nr; ++j)
                      crow[j] = acc[i * kAmxNR + j];
                  } else {
                    for (std::int64_t j = 0; j < nr; ++j)
                      crow[j] += acc[i * kAmxNR + j];
                  }
                }
              }
            }
          }
        }
      });
    }
  }
}
#endif  // PTDP_GEMM_NATIVE_BF16

// Small-m path: m < kMC leaves a single row panel, which the row-panel
// partition below would run on one thread while repacking all of B. Here A
// is packed once for every k panel, and the pool splits the kNR-column
// slivers of C instead. Each task walks the k panels in order for its own
// slivers with the same micro-panels and the same overwrite-then-add
// epilogue, so every C element sees exactly the row-panel path's
// accumulation order: results are bitwise equal to it at any thread count.
// f32 B with unit column stride (row-major weights, V in bmm) is read in
// place at row stride rsb; a ragged last sliver, transposed and bf16 B are
// packed one sliver at a time by the task that computes it. Quantized B
// takes this path at every m: the vector build dequantizes in the fused
// kernel and reads A in place, portable builds pack dequantized slivers.
template <typename TA, typename TB>
void gemm_small_m(std::int64_t m, std::int64_t n, std::int64_t k, const TA* a,
                  std::int64_t rsa, std::int64_t csa, const TB* b,
                  std::int64_t rsb, std::int64_t csb, float* c, bool accumulate) {
  constexpr bool kFusedQuant = PTDP_GEMM_VEC && std::is_same_v<TB, QuantView>;
  const std::int64_t mp = (m + kMR - 1) / kMR * kMR;
  float* ap = nullptr;
  if constexpr (!kFusedQuant) {
    ap = shared_scratch(mp * k);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      pack_a_block(a, rsa, csa, 0, m, pc, std::min(kKC, k - pc), ap + mp * pc);
    }
  }

  const std::int64_t slivers = (n + kNR - 1) / kNR;
  const std::int64_t sliver_flops = 2 * m * n * k / slivers;
  const std::int64_t grain =
      std::max<std::int64_t>(1, kGemmGrainFlops / std::max<std::int64_t>(
                                                      sliver_flops, 1));
  parallel_for(0, slivers, grain, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const bool first = pc == 0 && !accumulate;
      for (std::int64_t s = s0; s < s1; ++s) {
        const std::int64_t j0 = s * kNR;
        const std::int64_t nr = std::min(kNR, n - j0);
        if constexpr (kFusedQuant) {
#if PTDP_GEMM_VEC
          if (b->kind == QuantKind::kQ4) {
            quant_sliver<true>(*b, s, pc, kc, m, a, rsa, nr, c + j0, n, first);
          } else {
            quant_sliver<false>(*b, s, pc, kc, m, a, rsa, nr, c + j0, n, first);
          }
#endif
        } else {
          const float* bsliver = nullptr;
          std::int64_t ldb = kNR;
          if constexpr (std::is_same_v<TB, float>) {
            if (csb == 1 && nr == kNR) {
              bsliver = b + pc * rsb + j0;
              ldb = rsb;
            }
          }
          if (bsliver == nullptr) {
            float* bp = task_scratch(kKC * kNR);
            pack_b_panel(b, rsb, csb, pc, kc, j0, nr, bp);
            bsliver = bp;
          }
          for (std::int64_t ir = 0; ir < m; ir += kMR) {
            float acc[kMR * kNR];
            micro_kernel(kc, ap + mp * pc + ir * kc, bsliver, ldb, acc);
            store_tile(acc, std::min(kMR, m - ir), nr, c + ir * n + j0, n, first);
          }
        }
      }
    }
  });
}

template <typename TA, typename TB>
void gemm_strided(std::int64_t m, std::int64_t n, std::int64_t k, const TA* a,
                  std::int64_t rsa, std::int64_t csa, const TB* b,
                  std::int64_t rsb, std::int64_t csb, float* c,
                  bool accumulate = false) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Empty contraction: the product is the zero matrix, and C may be
    // uninitialized storage.
    if (!accumulate) std::fill_n(c, m * n, 0.0f);
    return;
  }
#if PTDP_GEMM_NATIVE_BF16
  if constexpr (std::is_same_v<TA, bf16_t> && std::is_same_v<TB, bf16_t>) {
    if (amx_tile_ready()) {
      gemm_strided_bf16_native(m, n, k, a, rsa, csa, b, rsb, csb, c, accumulate);
      return;
    }
  }
#endif
  if (m < kMC) {
    gemm_small_m(m, n, k, a, rsa, csa, b, rsb, csb, c, accumulate);
    return;
  }
  const std::int64_t nc_max = std::min(n, kNC);
  const std::int64_t nc_padded = (nc_max + kNR - 1) / kNR * kNR;
  float* bp = shared_scratch(kKC * nc_padded);

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const bool first = pc == 0 && !accumulate;
      pack_b_panel(b, rsb, csb, pc, kc, jc, nc, bp);

      const std::int64_t nblocks = (m + kMC - 1) / kMC;
      const std::int64_t block_flops = 2 * kMC * nc * kc;
      const std::int64_t grain =
          std::max<std::int64_t>(1, kGemmGrainFlops / std::max<std::int64_t>(
                                                          block_flops, 1));
      parallel_for(0, nblocks, grain, [&](std::int64_t blk0, std::int64_t blk1) {
        float* ap = task_scratch(kMC * kKC);
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t i0 = blk * kMC;
          const std::int64_t mc = std::min(kMC, m - i0);
          pack_a_block(a, rsa, csa, i0, mc, pc, kc, ap);
          for (std::int64_t jr = 0; jr < nc; jr += kNR) {
            const std::int64_t nr = std::min(kNR, nc - jr);
            const float* bsliver = bp + jr * kc;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              float acc[kMR * kNR];
              micro_kernel(kc, ap + ir * kc, bsliver, kNR, acc);
              store_tile(acc, std::min(kMR, mc - ir), nr,
                         c + (i0 + ir) * n + jc + jr, n, first);
            }
          }
        }
      });
    }
  }
}

// Runs f(pa, pb) with each pointer typed to the tensor's storage dtype —
// the one place matmul/bmm fan out over the four (f32|bf16)² input
// combinations. The output is always f32 (fp32 accumulate).
template <typename F>
void dispatch_gemm(const Tensor& a, const Tensor& b, F&& f) {
  const bool a16 = a.dtype() == DType::kBf16;
  const bool b16 = b.dtype() == DType::kBf16;
  if (!a16 && !b16) {
    f(a.data().data(), b.data().data());
  } else if (!a16 && b16) {
    f(a.data().data(), b.data_bf16().data());
  } else if (a16 && !b16) {
    f(a.data_bf16().data(), b.data().data());
  } else {
    f(a.data_bf16().data(), b.data_bf16().data());
  }
}

void check_2d(const Tensor& t, const char* what) {
  PTDP_CHECK_EQ(t.ndim(), 2) << what << " must be 2-D, got " << t.shape_str();
}
void check_3d(const Tensor& t, const char* what) {
  PTDP_CHECK_EQ(t.ndim(), 3) << what << " must be 3-D, got " << t.shape_str();
}

// Rows/cols split for "[..., n]" tensors.
std::int64_t leading_rows(const Tensor& t) {
  PTDP_CHECK_GE(t.ndim(), 1);
  return t.numel() / t.dim(-1);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul lhs");
  check_2d(b, "matmul rhs");
  PTDP_CHECK_EQ(a.dim(1), b.dim(0)) << a.shape_str() << " x " << b.shape_str();
  const std::int64_t m = a.dim(0), n = b.dim(1), k = a.dim(1);
  Tensor c = Tensor::empty({m, n});
  dispatch_gemm(a, b, [&](const auto* pa, const auto* pb) {
    gemm_strided(m, n, k, pa, k, 1, pb, n, 1, c.data().data());
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_nt lhs");
  check_2d(b, "matmul_nt rhs");
  PTDP_CHECK_EQ(a.dim(1), b.dim(1)) << a.shape_str() << " x " << b.shape_str() << "^T";
  const std::int64_t m = a.dim(0), n = b.dim(0), k = a.dim(1);
  Tensor c = Tensor::empty({m, n});
  dispatch_gemm(a, b, [&](const auto* pa, const auto* pb) {
    gemm_strided(m, n, k, pa, k, 1, pb, 1, k, c.data().data());
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_tn lhs");
  check_2d(b, "matmul_tn rhs");
  PTDP_CHECK_EQ(a.dim(0), b.dim(0)) << a.shape_str() << "^T x " << b.shape_str();
  const std::int64_t m = a.dim(1), n = b.dim(1), k = a.dim(0);
  Tensor c = Tensor::empty({m, n});
  dispatch_gemm(a, b, [&](const auto* pa, const auto* pb) {
    gemm_strided(m, n, k, pa, 1, m, pb, n, 1, c.data().data());
  });
  return c;
}

void add_matmul_tn_(Tensor& c, const Tensor& a, const Tensor& b) {
  check_2d(a, "add_matmul_tn_ lhs");
  check_2d(b, "add_matmul_tn_ rhs");
  PTDP_CHECK_EQ(a.dim(0), b.dim(0)) << a.shape_str() << "^T x " << b.shape_str();
  const std::int64_t m = a.dim(1), n = b.dim(1), k = a.dim(0);
  PTDP_CHECK(c.dtype() == DType::kF32 && c.ndim() == 2 && c.dim(0) == m &&
             c.dim(1) == n)
      << "add_matmul_tn_ target " << c.shape_str() << " for [" << m << ", " << n
      << "]";
  dispatch_gemm(a, b, [&](const auto* pa, const auto* pb) {
    gemm_strided(m, n, k, pa, 1, m, pb, n, 1, c.data().data(), /*accumulate=*/true);
  });
}

bool bf16_gemm_on_amx() {
#if PTDP_GEMM_NATIVE_BF16
  return amx_tile_ready();
#else
  return false;
#endif
}

void gemm_f32xq(const QuantView& w, std::int64_t m, const float* a, float* c) {
  PTDP_CHECK(w.group > 0 && w.k % w.group == 0) << "group must divide k";
  if (m <= 0 || w.n <= 0) return;
  gemm_small_m(m, w.n, w.k, a, w.k, std::int64_t{1}, &w, std::int64_t{0},
               std::int64_t{0}, c, /*accumulate=*/false);
}

namespace {

// Batched GEMM over per-variant strides (NN/NT/TN encode their transpose
// in (rsa, csa, rsb, csb), exactly as the 2-D wrappers do). Batches are
// embarrassingly parallel; when a single batch is big enough to fan out on
// its own (range <= grain here), the per-batch GEMM parallelizes instead.
Tensor bmm_impl(const Tensor& a, const Tensor& b, std::int64_t m, std::int64_t n,
                std::int64_t k, std::int64_t rsa, std::int64_t csa,
                std::int64_t rsb, std::int64_t csb) {
  const std::int64_t batches = a.dim(0);
  Tensor c = Tensor::empty({batches, m, n});
  float* pc = c.data().data();
  const std::int64_t sa = a.dim(1) * a.dim(2);
  const std::int64_t sb = b.dim(1) * b.dim(2);
  const std::int64_t sc = m * n;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kGemmGrainFlops / std::max<std::int64_t>(2 * m * n * k, 1));
  dispatch_gemm(a, b, [&](const auto* pa, const auto* pb) {
    parallel_for(0, batches, grain, [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t batch = b0; batch < b1; ++batch) {
        gemm_strided(m, n, k, pa + batch * sa, rsa, csa, pb + batch * sb, rsb,
                     csb, pc + batch * sc);
      }
    });
  });
  return c;
}

}  // namespace

Tensor bmm(const Tensor& a, const Tensor& b) {
  check_3d(a, "bmm lhs");
  check_3d(b, "bmm rhs");
  PTDP_CHECK_EQ(a.dim(0), b.dim(0));
  PTDP_CHECK_EQ(a.dim(2), b.dim(1)) << a.shape_str() << " x " << b.shape_str();
  const std::int64_t m = a.dim(1), n = b.dim(2), k = a.dim(2);
  return bmm_impl(a, b, m, n, k, k, 1, n, 1);
}

Tensor bmm_nt(const Tensor& a, const Tensor& b) {
  check_3d(a, "bmm_nt lhs");
  check_3d(b, "bmm_nt rhs");
  PTDP_CHECK_EQ(a.dim(0), b.dim(0));
  PTDP_CHECK_EQ(a.dim(2), b.dim(2)) << a.shape_str() << " x " << b.shape_str() << "^T";
  const std::int64_t m = a.dim(1), n = b.dim(1), k = a.dim(2);
  return bmm_impl(a, b, m, n, k, k, 1, 1, k);
}

Tensor bmm_tn(const Tensor& a, const Tensor& b) {
  check_3d(a, "bmm_tn lhs");
  check_3d(b, "bmm_tn rhs");
  PTDP_CHECK_EQ(a.dim(0), b.dim(0));
  PTDP_CHECK_EQ(a.dim(1), b.dim(1)) << a.shape_str() << "^T x " << b.shape_str();
  const std::int64_t m = a.dim(2), n = b.dim(2), k = a.dim(1);
  return bmm_impl(a, b, m, n, k, 1, m, n, 1);
}


// ---- dtype casts ---------------------------------------------------------------
//
// Declared in tensor.hpp; defined here so they build with the kernel flags
// and vectorize. Both are integer bit operations, so the flags cannot
// change a result.

void widen_bf16(std::span<const bf16_t> src, std::span<float> dst) {
  PTDP_CHECK_EQ(src.size(), dst.size());
  const bf16_t* s = src.data();
  float* d = dst.data();
  parallel_for(0, static_cast<std::int64_t>(src.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) d[i] = bf16_to_f32(s[i]);
               });
}

void narrow_bf16(std::span<const float> src, std::span<bf16_t> dst) {
  PTDP_CHECK_EQ(src.size(), dst.size());
  const float* s = src.data();
  bf16_t* d = dst.data();
  parallel_for(0, static_cast<std::int64_t>(src.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) d[i] = f32_to_bf16(s[i]);
               });
}

// ---- elementwise ---------------------------------------------------------------

namespace {
template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, F f) {
  PTDP_CHECK(a.same_shape(b)) << a.shape_str() << " vs " << b.shape_str();
  Tensor out = Tensor::empty(a.shape());
  auto da = a.data();
  auto db = b.data();
  auto dout = out.data();
  parallel_for(0, static_cast<std::int64_t>(da.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) dout[i] = f(da[i], db[i]);
               });
  return out;
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor out = Tensor::empty(a.shape());
  auto da = a.data();
  auto dout = out.data();
  parallel_for(0, static_cast<std::int64_t>(da.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) dout[i] = alpha * da[i];
               });
  return out;
}

void add_(Tensor& a, const Tensor& b) {
  PTDP_CHECK(a.same_shape(b)) << a.shape_str() << " vs " << b.shape_str();
  auto da = a.data();
  auto db = b.data();
  parallel_for(0, static_cast<std::int64_t>(da.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) da[i] += db[i];
               });
}

void axpy_(Tensor& y, float alpha, const Tensor& x) {
  PTDP_CHECK(y.same_shape(x)) << y.shape_str() << " vs " << x.shape_str();
  auto dy = y.data();
  auto dx = x.data();
  parallel_for(0, static_cast<std::int64_t>(dy.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) dy[i] += alpha * dx[i];
               });
}

void scale_(Tensor& a, float alpha) {
  auto da = a.data();
  parallel_for(0, static_cast<std::int64_t>(da.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) da[i] *= alpha;
               });
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  PTDP_CHECK_EQ(bias.ndim(), 1);
  PTDP_CHECK_EQ(x.dim(-1), bias.dim(0));
  const std::int64_t rows = leading_rows(x);
  const std::int64_t n = x.dim(-1);
  Tensor out = Tensor::empty(x.shape());
  auto dx = x.data();
  auto db = bias.data();
  auto dout = out.data();
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int64_t j = 0; j < n; ++j) {
        dout[static_cast<std::size_t>(r * n + j)] =
            dx[static_cast<std::size_t>(r * n + j)] + db[static_cast<std::size_t>(j)];
      }
    }
  });
  return out;
}

Tensor bias_grad(const Tensor& dy) {
  const std::int64_t rows = leading_rows(dy);
  const std::int64_t n = dy.dim(-1);
  Tensor g({n});
  auto ddy = dy.data();
  auto dg = g.data();
  // Parallel over column stripes: each output element is reduced serially
  // over rows inside one chunk, so the sum order (and bit pattern) matches
  // the serial kernel for every thread count.
  parallel_for(0, n, row_grain(rows), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = j0; j < j1; ++j) {
        dg[static_cast<std::size_t>(j)] += ddy[static_cast<std::size_t>(r * n + j)];
      }
    }
  });
  return g;
}

// ---- activations ---------------------------------------------------------------

namespace {
#if defined(__GNUC__) || defined(__clang__)
// Vectorized GeLU. A scalar std::tanh loop spends ~95% of its time in libm
// tanh (it remains only as the fallback for other compilers, below); here
// tanh(u) is evaluated as sign(u) * (1 - e) / (1 + e) with e = exp(-2|u|),
// and exp through the classic 2^n * 2^f split: n = round(t),
// t = v*log2(e), with the round done by the add-magic-constant trick
// (2^23 + 2^22 puts any |t| < 2^21 in the 1-ulp-per-integer regime, so the
// float's low mantissa bits ARE the integer) and 2^f a degree-5 polynomial
// on f in [-0.5, 0.5].
// Everything is elementwise, so results are bitwise independent of both
// chunking and lane position — thread-count determinism comes for free.

inline VecNR gelu_splat(float x) {
  VecNR v;
  for (std::int64_t j = 0; j < kNR; ++j) v[j] = x;
  return v;
}

// exp(v) for v <= 0. Finite inputs are clamped at -87 (exp(-87) ~ 1.6e-38,
// still a normal float) so the exponent bit-build below never underflows;
// v = -inf (a masked-out softmax score) gives exactly 0.
inline VecNR exp_neg_vec(VecNR v) {
  const VecNR x = v;
  const VecNR lo = gelu_splat(-87.0f);
  v = v < lo ? lo : v;
  const VecNR t = v * 1.4426950408889634f;  // log2(e)
  const VecNR magic = gelu_splat(12582912.0f);  // 2^23 + 2^22
  const VecNR r = t + magic;
  const VecNI n = (VecNI)r - (VecNI)magic;  // same-size vector cast = bit view
  const VecNR f = t - (r - magic);          // in [-0.5, 0.5]
  // 2^f: minimax-ish Taylor in ln2 * f, max relative error ~2e-8.
  VecNR p = gelu_splat(0.00133335581f);
  p = p * f + 0.00961812911f;
  p = p * f + 0.0555041087f;
  p = p * f + 0.240226507f;
  p = p * f + 0.693147180f;
  p = p * f + 1.0f;
  const VecNI bits = (n + 127) << 23;  // 2^n
  const VecNR e = p * (VecNR)bits;
  return x == -std::numeric_limits<float>::infinity() ? gelu_splat(0.0f) : e;
}

inline VecNR tanh_vec(VecNR u) {
  const VecNI sign_mask = (VecNI)u & static_cast<std::int32_t>(0x80000000);
  const VecNR au = (VecNR)((VecNI)u & 0x7fffffff);
  const VecNR e = exp_neg_vec(-2.0f * au);
  const VecNR t = (1.0f - e) / (1.0f + e);
  return (VecNR)((VecNI)t | sign_mask);
}

inline VecNR gelu_vec(VecNR x) {
  const VecNR u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + tanh_vec(u));
}

inline VecNR gelu_grad_vec(VecNR x) {
  const VecNR u = kGeluC * (x + kGeluA * x * x * x);
  const VecNR t = tanh_vec(u);
  const VecNR du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}
#else
inline float gelu_scalar(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}
inline float gelu_grad_scalar(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = std::tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}
#endif  // __GNUC__ || __clang__

// out[j] = GeLU(x[j] + bias[j]) over [0, n); bias may be null. The tail
// (< kNR elements) runs the SAME vector code over zero-padded lanes, so
// every element sees one arithmetic sequence regardless of where chunk
// boundaries fall.
void gelu_forward_span(const float* x, const float* bias, float* out,
                       std::int64_t n) {
#if defined(__GNUC__) || defined(__clang__)
  for (std::int64_t j = 0; j < n; j += kNR) {
    const std::int64_t nr = std::min(kNR, n - j);
    VecNR v = load_lanes(x + j, nr);
    if (bias != nullptr) v += load_lanes(bias + j, nr);
    store_lanes(out + j, gelu_vec(v), nr);
  }
#else
  if (bias != nullptr) {
    for (std::int64_t j = 0; j < n; ++j) out[j] = gelu_scalar(x[j] + bias[j]);
  } else {
    for (std::int64_t j = 0; j < n; ++j) out[j] = gelu_scalar(x[j]);
  }
#endif
}

/// out[j] = dy[j] * GeLU'(x[j] + bias[j]) over [0, n); bias may be null.
void gelu_grad_span(const float* dy, const float* x, const float* bias,
                    float* out, std::int64_t n) {
#if defined(__GNUC__) || defined(__clang__)
  for (std::int64_t j = 0; j < n; j += kNR) {
    const std::int64_t nr = std::min(kNR, n - j);
    VecNR v = load_lanes(x + j, nr);
    if (bias != nullptr) v += load_lanes(bias + j, nr);
    store_lanes(out + j, load_lanes(dy + j, nr) * gelu_grad_vec(v), nr);
  }
#else
  if (bias != nullptr) {
    for (std::int64_t j = 0; j < n; ++j) {
      out[j] = dy[j] * gelu_grad_scalar(x[j] + bias[j]);
    }
  } else {
    for (std::int64_t j = 0; j < n; ++j) out[j] = dy[j] * gelu_grad_scalar(x[j]);
  }
#endif
}
}  // namespace

Tensor gelu(const Tensor& x) {
  Tensor out = Tensor::empty(x.shape());
  auto dx = x.data();
  auto dout = out.data();
  parallel_for(0, static_cast<std::int64_t>(dx.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 gelu_forward_span(dx.data() + i0, nullptr, dout.data() + i0,
                                   i1 - i0);
               });
  return out;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  PTDP_CHECK(dy.same_shape(x));
  Tensor out = Tensor::empty(x.shape());
  auto ddy = dy.data();
  auto dx = x.data();
  auto dout = out.data();
  parallel_for(0, static_cast<std::int64_t>(dx.size()), kElemGrain,
               [&](std::int64_t i0, std::int64_t i1) {
                 gelu_grad_span(ddy.data() + i0, dx.data() + i0, nullptr,
                                dout.data() + i0, i1 - i0);
               });
  return out;
}

namespace {

// The dropout scale of element e: 0 when draw e of the site's stream is a
// bernoulli(·, p) success, keep = 1/(1 − p) otherwise. Every dropout kernel
// takes its scales from here, so a backward redraws its forward's bits.
inline float drop_scale(const Rng& rng, std::uint64_t e, double p, float keep) {
  return bernoulli(rng.u64_at(e), p) ? 0.0f : keep;
}

// dst[j] = src[j] · the scale of element e0 + j, for j < n (src may be dst).
// p == 0 skips the draws: the scale is 1.0f and the product exact.
void drop_span(const float* src, float* dst, std::int64_t n, const Rng& rng,
               std::uint64_t e0, float p) {
  if (p == 0.0f) {
    if (src != dst) std::copy_n(src, n, dst);
    return;
  }
  const Rng r = rng;  // a local copy: no store can alias its key
  const float keep = 1.0f / (1.0f - p);
  const double pd = p;
  for (std::int64_t j = 0; j < n; ++j) {
    dst[j] = src[j] * drop_scale(r, e0 + static_cast<std::uint64_t>(j), pd, keep);
  }
}

// m[j] = the scale of element e0 + j, for j < n and p > 0.
void drop_scales(float* m, std::int64_t n, const Rng& rng, std::uint64_t e0,
                 float p) {
  const Rng r = rng;
  const float keep = 1.0f / (1.0f - p);
  const double pd = p;
  for (std::int64_t j = 0; j < n; ++j) {
    m[j] = drop_scale(r, e0 + static_cast<std::uint64_t>(j), pd, keep);
  }
}

void check_dropout_p(float p) {
  PTDP_CHECK_GE(p, 0.0f);
  PTDP_CHECK_LT(p, 1.0f);
}

}  // namespace

Tensor dropout(const Tensor& x, float p, const Rng& rng) {
  check_dropout_p(p);
  Tensor out = Tensor::empty(x.shape());
  const float* dx = x.data().data();
  float* dout = out.data().data();
  parallel_for(0, x.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    drop_span(dx + i0, dout + i0, i1 - i0, rng, static_cast<std::uint64_t>(i0), p);
  });
  return out;
}

// dX = dy ⊙ the mask the forward drew: the same scales, redrawn.
Tensor dropout_backward(const Tensor& dy, float p, const Rng& rng) {
  return dropout(dy, p, rng);
}

// ---- normalization -------------------------------------------------------------

LayerNormResult layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                          float eps) {
  PTDP_CHECK_EQ(gamma.ndim(), 1);
  PTDP_CHECK_EQ(beta.ndim(), 1);
  const std::int64_t n = x.dim(-1);
  PTDP_CHECK_EQ(gamma.dim(0), n);
  PTDP_CHECK_EQ(beta.dim(0), n);
  const std::int64_t rows = leading_rows(x);

  LayerNormResult result{Tensor::empty(x.shape()), Tensor::empty({rows}),
                         Tensor::empty({rows})};
  auto dx = x.data();
  auto dg = gamma.data();
  auto db = beta.data();
  auto dy = result.y.data();
  auto dmean = result.mean.data();
  auto drstd = result.rstd.data();

  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* row = dx.data() + r * n;
      float sum = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) sum += row[j];
      const float mean = sum / static_cast<float>(n);
      float var = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) {
        const float d = row[j] - mean;
        var += d * d;
      }
      var /= static_cast<float>(n);
      const float rstd = 1.0f / std::sqrt(var + eps);
      dmean[static_cast<std::size_t>(r)] = mean;
      drstd[static_cast<std::size_t>(r)] = rstd;
      float* out_row = dy.data() + r * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const float xhat = (row[j] - mean) * rstd;
        out_row[j] =
            xhat * dg[static_cast<std::size_t>(j)] + db[static_cast<std::size_t>(j)];
      }
    }
  });
  return result;
}

LayerNormGrads layernorm_backward(const Tensor& dy, const Tensor& x,
                                  const Tensor& gamma, const Tensor& mean,
                                  const Tensor& rstd) {
  const std::int64_t n = x.dim(-1);
  const std::int64_t rows = leading_rows(x);
  PTDP_CHECK(dy.same_shape(x));
  PTDP_CHECK_EQ(mean.numel(), rows);
  PTDP_CHECK_EQ(rstd.numel(), rows);

  // dx is fully overwritten; dgamma/dbeta accumulate and must start at zero.
  LayerNormGrads grads{Tensor::empty(x.shape()), Tensor({n}), Tensor({n})};
  auto ddy = dy.data();
  auto dx = x.data();
  auto dg = gamma.data();
  auto dmean = mean.data();
  auto drstd = rstd.data();
  auto out_dx = grads.dx.data();
  auto out_dgamma = grads.dgamma.data();
  auto out_dbeta = grads.dbeta.data();

  // Pass 1 — dx, parallel over rows (each row's two reductions stay serial
  // inside its chunk).
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xrow = dx.data() + r * n;
      const float* dyrow = ddy.data() + r * n;
      float* dxrow = out_dx.data() + r * n;
      const float m = dmean[static_cast<std::size_t>(r)];
      const float rs = drstd[static_cast<std::size_t>(r)];

      // dxhat = dy * gamma; dx = rstd*(dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
      float sum_dxhat = 0.0f;
      float sum_dxhat_xhat = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) {
        const float xhat = (xrow[j] - m) * rs;
        const float dxhat = dyrow[j] * dg[static_cast<std::size_t>(j)];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat;
      }
      const float inv_n = 1.0f / static_cast<float>(n);
      for (std::int64_t j = 0; j < n; ++j) {
        const float xhat = (xrow[j] - m) * rs;
        const float dxhat = dyrow[j] * dg[static_cast<std::size_t>(j)];
        dxrow[j] = rs * (dxhat - inv_n * sum_dxhat - xhat * inv_n * sum_dxhat_xhat);
      }
    }
  });

  // Pass 2 — dgamma/dbeta, parallel over column stripes; the row reduction
  // per column runs serially in ascending order for determinism.
  parallel_for(0, n, row_grain(rows), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* xrow = dx.data() + r * n;
      const float* dyrow = ddy.data() + r * n;
      const float m = dmean[static_cast<std::size_t>(r)];
      const float rs = drstd[static_cast<std::size_t>(r)];
      for (std::int64_t j = j0; j < j1; ++j) {
        const float xhat = (xrow[j] - m) * rs;
        out_dgamma[static_cast<std::size_t>(j)] += dyrow[j] * xhat;
        out_dbeta[static_cast<std::size_t>(j)] += dyrow[j];
      }
    }
  });
  return grads;
}

// ---- softmax -------------------------------------------------------------------

namespace {

// f(r, j) for every j < lim[r] in ascending j, the R rows' chains
// interleaved, lim ascending in r: the keys every row sees (constant row
// bounds keep per-row state in registers), then the ragged end.
template <int R, class F>
inline void each_key(const std::int64_t* lim, F&& f) {
  std::int64_t j = 0;
  for (; j < lim[0]; ++j) {
    for (int r = 0; r < R; ++r) f(r, j);
  }
  for (int r0 = 1; r0 < R; ++r0) {
    for (; j < lim[r0]; ++j) {
      for (int r = r0; r < R; ++r) f(r, j);
    }
  }
}

// p[r][0, lim[r]) = softmax(scale · p[r][0, lim[r])), p[r][lim[r], len) = 0,
// lim ascending in r (causal: row r sees one key more than row r - 1).
// Each row's max and sum run in ascending j; the exps are elementwise (the
// tail in zero-padded lanes).
template <int R>
void softmax_rows(float* const* p, const std::int64_t* lim, std::int64_t len,
                  float scl) {
  float mx[R], denom[R];
  for (int r = 0; r < R; ++r) {
    mx[r] = -std::numeric_limits<float>::infinity();
    denom[r] = 0.0f;
  }
  each_key<R>(lim,
              [&](int r, std::int64_t j) { mx[r] = std::max(mx[r], scl * p[r][j]); });
  for (int r = 0; r < R; ++r) {
    for (std::int64_t j = 0; j < lim[r]; j += kNR) {
#if PTDP_GEMM_VEC
      const std::int64_t n = std::min(kNR, lim[r] - j);
      store_lanes(p[r] + j, exp_neg_vec(scl * load_lanes(p[r] + j, n) - mx[r]), n);
#else
      for (std::int64_t l = j; l < std::min(lim[r], j + kNR); ++l) {
        p[r][l] = std::exp(scl * p[r][l] - mx[r]);
      }
#endif
    }
  }
  each_key<R>(lim, [&](int r, std::int64_t j) { denom[r] += p[r][j]; });
  for (int r = 0; r < R; ++r) {
    const float inv = 1.0f / denom[r];
    for (std::int64_t j = 0; j < lim[r]; ++j) p[r][j] *= inv;
    std::fill(p[r] + lim[r], p[r] + len, 0.0f);
  }
}

}  // namespace

Tensor softmax_lastdim(const Tensor& x) {
  const std::int64_t n = x.dim(-1);
  Tensor out = x.clone();
  auto dout = out.data();
  parallel_for(0, leading_rows(x), row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float* row = dout.data() + r * n;
      softmax_rows<1>(&row, &n, n, 1.0f);
    }
  });
  return out;
}

Tensor softmax_backward(const Tensor& y, const Tensor& dy) {
  PTDP_CHECK(y.same_shape(dy));
  const std::int64_t n = y.dim(-1);
  const std::int64_t rows = leading_rows(y);
  Tensor out = Tensor::empty(y.shape());
  auto dyv = dy.data();
  auto yv = y.data();
  auto dout = out.data();
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* yrow = yv.data() + r * n;
      const float* dyrow = dyv.data() + r * n;
      float* orow = dout.data() + r * n;
      float dot = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) dot += yrow[j] * dyrow[j];
      for (std::int64_t j = 0; j < n; ++j) orow[j] = yrow[j] * (dyrow[j] - dot);
    }
  });
  return out;
}

// ---- fused kernels -------------------------------------------------------------

Tensor fused_bias_gelu(const Tensor& x, const Tensor& bias) {
  PTDP_CHECK_EQ(bias.ndim(), 1);
  PTDP_CHECK_EQ(x.dim(-1), bias.dim(0));
  const std::int64_t rows = leading_rows(x);
  const std::int64_t n = x.dim(-1);
  Tensor out = Tensor::empty(x.shape());
  auto dx = x.data();
  auto db = bias.data();
  auto dout = out.data();
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      gelu_forward_span(dx.data() + r * n, db.data(), dout.data() + r * n, n);
    }
  });
  return out;
}

Tensor fused_bias_gelu_backward(const Tensor& dy, const Tensor& x, const Tensor& bias,
                                Tensor& dbias) {
  PTDP_CHECK(dy.same_shape(x));
  PTDP_CHECK(dbias.same_shape(bias));
  const std::int64_t rows = leading_rows(x);
  const std::int64_t n = x.dim(-1);
  Tensor out = Tensor::empty(x.shape());
  auto ddy = dy.data();
  auto dx = x.data();
  auto db = bias.data();
  auto ddb = dbias.data();
  auto dout = out.data();
  // dX in parallel over rows; the bias-grad reduction then runs over column
  // stripes of the already-computed dX so each ddb[j] accumulates rows in
  // ascending order no matter the thread count.
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      gelu_grad_span(ddy.data() + r * n, dx.data() + r * n, db.data(),
                     dout.data() + r * n, n);
    }
  });
  parallel_for(0, n, row_grain(rows), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* orow = dout.data() + r * n;
      for (std::int64_t j = j0; j < j1; ++j) {
        ddb[static_cast<std::size_t>(j)] += orow[j];
      }
    }
  });
  return out;
}

Tensor fused_bias_dropout_add(const Tensor& x, const Tensor& bias,
                              const Tensor& residual, float p, const Rng& rng) {
  PTDP_CHECK(x.same_shape(residual));
  PTDP_CHECK_EQ(bias.ndim(), 1);
  PTDP_CHECK_EQ(x.dim(-1), bias.dim(0));
  check_dropout_p(p);
  const std::int64_t rows = leading_rows(x);
  const std::int64_t n = x.dim(-1);
  Tensor out = Tensor::empty(x.shape());
  const float* dx = x.data().data();
  const float* db = bias.data().data();
  const float* dr = residual.data().data();
  float* dout = out.data().data();
  // Row by row, each pass over the cache-hot row: the dropout product is
  // rounded before the residual add, as in dropout() -> add_(), and never
  // contracted into an FMA. Captures are by value: a captured float
  // reference could alias the stores and block vectorization.
  parallel_for(0, rows, row_grain(n), [=, &rng](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t o = r * n;
      for (std::int64_t j = 0; j < n; ++j) dout[o + j] = dx[o + j] + db[j];
      drop_span(dout + o, dout + o, n, rng, static_cast<std::uint64_t>(o), p);
      for (std::int64_t j = 0; j < n; ++j) dout[o + j] += dr[o + j];
    }
  });
  return out;
}

// ---- attention -----------------------------------------------------------------
//
// The one attention body (DESIGN.md §8): training and evaluation read K/V
// in the QKV rows, prefill and decode in the KV store's slots. Each output
// row is a pure function of its query row and the rows it sees, in one
// order whatever its query block, task or thread: s_ij sums kNR lanes over
// dk in one tree (lane_sums); the softmax's max, sum and normalization run
// in ascending j; o_i = Σ_j p_ij v_j runs j ascending, kAttnRows rows per
// V row load with independent accumulators. attention_backward is built
// from the same three steps.

namespace {

constexpr int kAttnRows = 4;               // output rows per V row load
constexpr std::int64_t kAttnBlock = 32;    // query rows per task (phase 2: keys)
constexpr std::int64_t kAttnGrainFlops = 1 << 18;

// Lane i of the result adds lanes (i / W)·2W + i % W and that + W of the
// 2·kNR lanes a|b: each W-lane group of a and b gives its low and high half.
template <int W, std::size_t... I>
VecNR halve(VecNR a, VecNR b, std::index_sequence<I...>) {
#if PTDP_GEMM_VEC && defined(__has_builtin) && __has_builtin(__builtin_shufflevector)
  return __builtin_shufflevector(a, b, (I / W * 2 * W + I % W)...) +
         __builtin_shufflevector(a, b, (I / W * 2 * W + I % W + W)...);
#else
  float ab[2 * kNR], out[kNR];
  std::memcpy(ab, &a, sizeof a);
  std::memcpy(ab + kNR, &b, sizeof b);
  ((out[I] = ab[I / W * 2 * W + I % W] + ab[I / W * 2 * W + I % W + W]), ...);
  return load_lanes(out, kNR);
#endif
}

// Lane k of the result is the sum of acc[k]'s lanes in one halving tree,
// t[l] + t[l + 8], then + 4, + 2, + 1, for kNR accumulators side by side.
inline VecNR lane_sums(VecNR* t) {
  static_assert(kNR == 16, "four halvings reduce 16 lanes");
  constexpr auto lanes = std::make_index_sequence<kNR>{};
  for (int i = 0; i < 8; ++i) t[i] = halve<8>(t[2 * i], t[2 * i + 1], lanes);
  for (int i = 0; i < 4; ++i) t[i] = halve<4>(t[2 * i], t[2 * i + 1], lanes);
  for (int i = 0; i < 2; ++i) t[i] = halve<2>(t[2 * i], t[2 * i + 1], lanes);
  return halve<1>(t[0], t[1], lanes);
}

// s[j] = q·k_j for j < lim with k_j = k[j] + off, kNR keys at a time.
void attend_scores(const float* q, std::int64_t dk,
                   std::span<const float* const> k, std::int64_t off,
                   std::int64_t lim, float* s) {
  for (std::int64_t j0 = 0; j0 < lim; j0 += kNR) {
    const std::int64_t keys = std::min(kNR, lim - j0);
    const float* kp[kNR];  // missing keys of a last group reread key j0
    for (std::int64_t i = 0; i < kNR; ++i) {
      kp[i] = k[static_cast<std::size_t>(j0 + (i < keys ? i : 0))] + off;
    }
    VecNR acc[kNR];
    for (VecNR& a : acc) a = VecNR{};
    for (std::int64_t c = 0; c * kNR < dk; ++c) {
      const std::int64_t n = std::min(kNR, dk - c * kNR);  // ragged: zero-padded
      const VecNR qc = load_lanes(q + c * kNR, n);
      for (std::int64_t i = 0; i < kNR; ++i) {
        acc[i] += qc * load_lanes(kp[i] + c * kNR, n);
      }
    }
    store_lanes(s + j0, lane_sums(acc), keys);
  }
}

// o[r][c0·kNR, c0·kNR + C·n) = Σ_j p[r][j] v_j over j ∈ [lo[r], hi[r])
// ascending, v_j = v(j), over C chunks of n lanes (n < kNR only for the
// ragged last chunk, C = 1). lo and hi ascend in r, and lo[R - 1] <= hi[0].
template <int R, int C, class Rows>
void attend_value_chunks(Rows v, std::int64_t c0, std::int64_t n,
                         const float* const* p, const std::int64_t* lo,
                         const std::int64_t* hi, float* const* o) {
  VecNR acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) acc[r][c] = VecNR{};
  }
  auto step = [&](std::int64_t j, int r0, int r1) {
    const float* vj = v(j) + c0 * kNR;
    VecNR vc[C];
    for (int c = 0; c < C; ++c) vc[c] = load_lanes(vj + c * kNR, C > 1 ? kNR : n);
    for (int r = r0; r < r1; ++r) {
      for (int c = 0; c < C; ++c) acc[r][c] += p[r][j] * vc[c];
    }
  };
  // Rows join one by one, run side by side (constant bounds keep the
  // accumulators of the hot loop in registers), then leave one by one.
  std::int64_t j = lo[0];
  for (int r1 = 1; r1 < R; ++r1) {
    for (; j < lo[r1]; ++j) step(j, 0, r1);
  }
  for (; j < hi[0]; ++j) step(j, 0, R);
  for (int r0 = 1; r0 < R; ++r0) {
    for (; j < hi[r0]; ++j) step(j, r0, R);
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      store_lanes(o[r] + (c0 + c) * kNR, acc[r][c], C > 1 ? kNR : n);
    }
  }
}

// attend_value_chunks over all dk lanes, 4 chunks per V row load.
template <int R, class Rows>
void attend_values(Rows v, std::int64_t dk, const float* const* p,
                   const std::int64_t* lo, const std::int64_t* hi, float* const* o) {
  std::int64_t c = 0;
  for (; c + 4 <= dk / kNR; c += 4) attend_value_chunks<R, 4>(v, c, kNR, p, lo, hi, o);
  for (; c * kNR < dk; ++c) {
    attend_value_chunks<R, 1>(v, c, std::min(kNR, dk - c * kNR), p, lo, hi, o);
  }
}

// Row j of table t, offset by `off` floats (one head's K or V rows).
auto head_rows(std::span<const float* const> t, std::int64_t off) {
  return [t, off](std::int64_t j) { return t[static_cast<std::size_t>(j)] + off; };
}

// P rows [i, i + R) of head h, before dropout, into p[r]: row r sees keys
// [0, lim[r]) and is 0 past them. The forward and the backward both take P
// from here, so the backward's P is bitwise the forward's.
template <int R>
void attend_probs(const AttentionSeq& sq, const AttentionShape& sh,
                  std::int64_t h, std::int64_t i, std::int64_t* lim,
                  float* const* p) {
  const auto len = static_cast<std::int64_t>(sq.k.size());
  for (int r = 0; r < R; ++r) {
    lim[r] = sh.causal ? sq.pos + i + r + 1 : len;
    attend_scores(sq.q + (i + r) * sq.q_stride + h * sh.q_head_stride, sh.dk,
                  sq.k, h * sq.kv_head_stride, lim[r], p[r]);
  }
  softmax_rows<R>(p, lim, len, sh.scale);
}

// Whether `sq` applies dropout, and the draw of its query i, key 0 (key j is
// draw i·len + j of its head's stream).
bool has_dropout(const AttentionSeq& sq) { return !sq.drop.empty() && sq.drop_p > 0.0f; }
std::uint64_t drop_row(const AttentionSeq& sq, std::int64_t i) {
  return static_cast<std::uint64_t>(i) * sq.k.size();
}

// Query rows [i, i + R) of head h of one sequence, the P rows in `scratch`
// (R·len floats).
template <int R>
void attend_rows(const AttentionSeq& sq, const AttentionShape& sh,
                 std::int64_t h, std::int64_t i, float* scratch) {
  const auto len = static_cast<std::int64_t>(sq.k.size());
  std::int64_t lo[R] = {}, lim[R];
  float* p[R];
  float* o[R];
  for (int r = 0; r < R; ++r) {
    p[r] = scratch + r * len;
    o[r] = sq.out + (i + r) * sq.out_stride + h * sh.dk;
  }
  attend_probs<R>(sq, sh, h, i, lim, p);
  if (has_dropout(sq)) {
    for (int r = 0; r < R; ++r) {
      drop_span(p[r], p[r], lim[r], sq.drop[static_cast<std::size_t>(h)],
                drop_row(sq, i + r), sq.drop_p);
    }
  }
  attend_values<R>(head_rows(sq.v, h * sq.kv_head_stride), sh.dk, p, lo, lim, o);
}

// Phase 1 of attention_backward, query rows [i, i + R) of head h: P as the
// forward computes it, the forward's dropout scales redrawn, dP = dO·Vᵀ, dS
// and dQ = dS·K (j ascending). dS and P ⊙ mask also go to the key-major
// hand-off rows ds_t[j·m + i] and pm_t[j·m + i], in which phase 2 reads its
// keys' queries in ascending i. `scratch` holds 3R·len floats.
template <int R>
void attend_query_grads(const AttentionGradSeq& g, const AttentionShape& sh,
                        std::int64_t h, std::int64_t i, float* scratch,
                        float* ds_t, float* pm_t) {
  const AttentionSeq& sq = g.seq;
  const std::int64_t m = sq.m;
  const auto len = static_cast<std::int64_t>(sq.k.size());
  std::int64_t lo[R] = {}, lim[R];
  const bool drop = has_dropout(sq);
  float* p[R];
  float* ds[R];
  float* mask[R];
  float* dq[R];
  for (int r = 0; r < R; ++r) {
    p[r] = scratch + r * len;
    ds[r] = scratch + (R + r) * len;
    mask[r] = scratch + (2 * R + r) * len;
    dq[r] = g.dq + (i + r) * g.dq_stride + h * sh.q_head_stride;
  }
  attend_probs<R>(sq, sh, h, i, lim, p);
  if (drop) {
    for (int r = 0; r < R; ++r) {
      drop_scales(mask[r], lim[r], sq.drop[static_cast<std::size_t>(h)],
                  drop_row(sq, i + r), sq.drop_p);
    }
  }
  // dP ⊙ mask, then dS = scale·P ⊙ (dP ⊙ mask − Σ_j P_ij (dP ⊙ mask)_ij),
  // each row's sum in ascending j.
  float dot[R];
  for (int r = 0; r < R; ++r) {
    attend_scores(g.dout + (i + r) * g.dout_stride + h * sh.dk, sh.dk, sq.v,
                  h * sq.kv_head_stride, lim[r], ds[r]);
    if (drop) {
      for (std::int64_t j = 0; j < lim[r]; ++j) ds[r][j] *= mask[r][j];
    }
    dot[r] = 0.0f;
  }
  each_key<R>(lim, [&](int r, std::int64_t j) { dot[r] += p[r][j] * ds[r][j]; });
  for (int r = 0; r < R; ++r) {
    for (std::int64_t j = 0; j < lim[r]; ++j) {
      ds[r][j] = sh.scale * (p[r][j] * (ds[r][j] - dot[r]));
      ds_t[j * m + i + r] = ds[r][j];
      pm_t[j * m + i + r] = drop ? p[r][j] * mask[r][j] : p[r][j];
    }
  }
  attend_values<R>(head_rows(sq.k, h * sq.kv_head_stride), sh.dk, ds, lo, lim, dq);
}

// Phase 2 of attention_backward, keys [j, j + R) of head h: dK = dSᵀ·Q and
// dV = (P ⊙ mask)ᵀ·dO, i ascending from the first query that sees the key.
template <int R>
void attend_key_grads(const AttentionGradSeq& g, const AttentionShape& sh,
                      std::int64_t h, std::int64_t j, const float* ds_t,
                      const float* pm_t) {
  const AttentionSeq& sq = g.seq;
  const std::int64_t m = sq.m;
  std::int64_t lo[R], hi[R];
  const float* ds[R];
  const float* pm[R];
  float* dk[R];
  float* dv[R];
  for (int r = 0; r < R; ++r) {
    lo[r] = sh.causal ? std::clamp<std::int64_t>(j + r - sq.pos, 0, m) : 0;
    hi[r] = m;
    ds[r] = ds_t + (j + r) * m;
    pm[r] = pm_t + (j + r) * m;
    dk[r] = g.dk[static_cast<std::size_t>(j + r)] + h * sq.kv_head_stride;
    dv[r] = g.dv[static_cast<std::size_t>(j + r)] + h * sq.kv_head_stride;
  }
  auto q = [&](std::int64_t i) {
    return sq.q + i * sq.q_stride + h * sh.q_head_stride;
  };
  auto dout = [&](std::int64_t i) { return g.dout + i * g.dout_stride + h * sh.dk; };
  attend_values<R>(q, sh.dk, ds, lo, hi, dk);
  attend_values<R>(dout, sh.dk, pm, lo, hi, dv);
}

void check_seq(const AttentionSeq& sq, const AttentionShape& sh) {
  const auto len = static_cast<std::int64_t>(sq.k.size());
  PTDP_CHECK_EQ(sq.v.size(), sq.k.size());
  PTDP_CHECK(sq.m == 0 || len > 0) << "attention over no keys";
  PTDP_CHECK(!sh.causal || sq.pos + sq.m <= len)
      << "query " << sq.pos + sq.m - 1 << " past the last key " << len - 1;
  PTDP_CHECK(sq.drop.empty() || static_cast<std::int64_t>(sq.drop.size()) == sh.heads)
      << "one dropout stream per head";
  check_dropout_p(sq.drop_p);
}

struct AttnTask {
  std::size_t seq;
  std::int64_t head, r0, r1;  ///< rows [r0, r1) of one head of one sequence
};

// One parallel_for over (sequence, head, kAttnBlock-row block) tasks, where
// sequence s has rows(s) rows per head; the grain is sized from the call's
// `flops`. body(R, task, row, scratch) takes kAttnRows rows at a time, then
// the block's tail one by one (R an integral_constant), with `scratch`
// floats of task scratch.
template <class Rows, class Body>
void for_each_attn_block(std::size_t nseq, std::int64_t heads, Rows rows,
                         std::int64_t flops, std::int64_t scratch, Body body) {
  std::vector<AttnTask> tasks;
  for (std::size_t s = 0; s < nseq; ++s) {
    const std::int64_t n = rows(s);
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t r0 = 0; r0 < n; r0 += kAttnBlock) {
        tasks.push_back({s, h, r0, std::min(n, r0 + kAttnBlock)});
      }
    }
  }
  const auto ntasks = static_cast<std::int64_t>(tasks.size());
  const std::int64_t grain = std::max<std::int64_t>(
      1, kAttnGrainFlops * ntasks / std::max<std::int64_t>(flops, 1));
  parallel_for(0, ntasks, grain, [&](std::int64_t t0, std::int64_t t1) {
    float* buf = task_scratch(scratch);
    for (std::int64_t t = t0; t < t1; ++t) {
      const AttnTask& tk = tasks[static_cast<std::size_t>(t)];
      std::int64_t i = tk.r0;
      for (; i + kAttnRows <= tk.r1; i += kAttnRows) {
        body(std::integral_constant<int, kAttnRows>{}, tk, i, buf);
      }
      for (; i < tk.r1; ++i) body(std::integral_constant<int, 1>{}, tk, i, buf);
    }
  });
}

}  // namespace

void attention(std::span<const AttentionSeq> seqs, const AttentionShape& sh) {
  PTDP_CHECK(sh.heads > 0 && sh.dk > 0);
  std::int64_t flops = 0, max_len = 0;
  for (const AttentionSeq& sq : seqs) {
    check_seq(sq, sh);
    const auto len = static_cast<std::int64_t>(sq.k.size());
    flops += 4 * sh.heads * sq.m * len * sh.dk;
    max_len = std::max(max_len, len);
  }
  for_each_attn_block(
      seqs.size(), sh.heads, [&](std::size_t s) { return seqs[s].m; }, flops,
      kAttnRows * max_len,
      [&](auto rows, const AttnTask& tk, std::int64_t i, float* buf) {
        attend_rows<decltype(rows)::value>(seqs[tk.seq], sh, tk.head, i, buf);
      });
}

void attention_backward(std::span<const AttentionGradSeq> seqs,
                        const AttentionShape& sh) {
  PTDP_CHECK(sh.heads > 0 && sh.dk > 0);
  // Sequence s hands over heads·len·m floats of dS (and of P ⊙ mask) from
  // at[s].
  std::vector<std::int64_t> at(seqs.size() + 1, 0);
  std::int64_t flops = 0, max_len = 0;
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    const AttentionGradSeq& g = seqs[s];
    check_seq(g.seq, sh);
    const auto len = static_cast<std::int64_t>(g.seq.k.size());
    PTDP_CHECK(g.dk.size() == g.seq.k.size() && g.dv.size() == g.seq.k.size());
    at[s + 1] = at[s] + sh.heads * len * g.seq.m;
    flops += 2 * sh.heads * g.seq.m * len * sh.dk;  // per product
    max_len = std::max(max_len, len);
  }
  Tensor handoff = Tensor::empty({2 * at.back()});
  float* ds_t = handoff.data().data();
  float* pm_t = ds_t + at.back();
  auto head_at = [&](const AttnTask& tk) {
    return at[tk.seq] + tk.head * seqs[tk.seq].seq.m *
                            static_cast<std::int64_t>(seqs[tk.seq].seq.k.size());
  };
  for_each_attn_block(
      seqs.size(), sh.heads, [&](std::size_t s) { return seqs[s].seq.m; }, 3 * flops,
      3 * kAttnRows * max_len,
      [&](auto rows, const AttnTask& tk, std::int64_t i, float* buf) {
        attend_query_grads<decltype(rows)::value>(seqs[tk.seq], sh, tk.head, i, buf,
                                                  ds_t + head_at(tk), pm_t + head_at(tk));
      });
  for_each_attn_block(
      seqs.size(), sh.heads,
      [&](std::size_t s) { return static_cast<std::int64_t>(seqs[s].seq.k.size()); },
      2 * flops, 0, [&](auto keys, const AttnTask& tk, std::int64_t j, float*) {
        attend_key_grads<decltype(keys)::value>(
            seqs[tk.seq], sh, tk.head, j, ds_t + head_at(tk), pm_t + head_at(tk));
      });
}

// ---- embedding -----------------------------------------------------------------

Tensor embedding(const Tensor& table, std::span<const std::int32_t> ids) {
  PTDP_CHECK_EQ(table.ndim(), 2);
  const std::int64_t vocab = table.dim(0);
  const std::int64_t h = table.dim(1);
  Tensor out = Tensor::empty({static_cast<std::int64_t>(ids.size()), h});
  auto dt = table.data();
  auto dout = out.data();
  parallel_for(0, static_cast<std::int64_t>(ids.size()), row_grain(h),
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) {
                   const std::int32_t id = ids[static_cast<std::size_t>(i)];
                   PTDP_CHECK(id >= 0 && id < vocab)
                       << "token id " << id << " out of range";
                   std::copy_n(dt.data() + static_cast<std::int64_t>(id) * h, h,
                               dout.data() + i * h);
                 }
               });
  return out;
}

// Stays serial: duplicate ids scatter-add into the same table row, and the
// accumulation order must not depend on the thread count.
void embedding_backward(const Tensor& dy, std::span<const std::int32_t> ids,
                        Tensor& dtable) {
  PTDP_CHECK_EQ(dtable.ndim(), 2);
  const std::int64_t h = dtable.dim(1);
  PTDP_CHECK_EQ(dy.numel(), static_cast<std::int64_t>(ids.size()) * h);
  auto ddy = dy.data();
  auto dt = dtable.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int64_t id = ids[i];
    const float* src = ddy.data() + static_cast<std::int64_t>(i) * h;
    float* dst = dt.data() + id * h;
    for (std::int64_t j = 0; j < h; ++j) dst[j] += src[j];
  }
}

// ---- loss ----------------------------------------------------------------------

CrossEntropyResult cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> targets) {
  PTDP_CHECK_EQ(logits.ndim(), 2);
  const std::int64_t n = logits.dim(0);
  const std::int64_t vocab = logits.dim(1);
  PTDP_CHECK_EQ(static_cast<std::int64_t>(targets.size()), n);
  Tensor probs = softmax_lastdim(logits);
  auto dp = probs.data();
  double loss = 0.0;
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t t = targets[static_cast<std::size_t>(r)];
    PTDP_CHECK(t >= 0 && t < vocab);
    loss -= std::log(std::max(dp[static_cast<std::size_t>(r * vocab + t)], 1e-30f));
  }
  return CrossEntropyResult{static_cast<float>(loss / static_cast<double>(n)),
                            std::move(probs)};
}

Tensor cross_entropy_backward(const Tensor& probs,
                              std::span<const std::int32_t> targets) {
  const std::int64_t n = probs.dim(0);
  const std::int64_t vocab = probs.dim(1);
  Tensor dlogits = probs.clone();
  auto dl = dlogits.data();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t r = 0; r < n; ++r) {
    dl[static_cast<std::size_t>(r * vocab + targets[static_cast<std::size_t>(r)])] -=
        1.0f;
  }
  for (float& v : dl) v *= inv_n;
  return dlogits;
}

// ---- reductions ----------------------------------------------------------------

float sum_all(const Tensor& x) {
  double s = 0.0;
  for (float v : x.data()) s += v;
  return static_cast<float>(s);
}

float mean_all(const Tensor& x) {
  PTDP_CHECK_GT(x.numel(), 0);
  return sum_all(x) / static_cast<float>(x.numel());
}

float max_all(const Tensor& x) {
  PTDP_CHECK_GT(x.numel(), 0);
  float m = -std::numeric_limits<float>::infinity();
  for (float v : x.data()) m = std::max(m, v);
  return m;
}

double squared_norm(const Tensor& x) {
  double s = 0.0;
  for (float v : x.data()) s += static_cast<double>(v) * v;
  return s;
}

Tensor row_max(const Tensor& x) {
  const std::int64_t n = x.dim(-1);
  const std::int64_t rows = leading_rows(x);
  Tensor out = Tensor::empty({rows});
  auto dx = x.data();
  auto dout = out.data();
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float m = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < n; ++j) {
        m = std::max(m, dx[static_cast<std::size_t>(r * n + j)]);
      }
      dout[static_cast<std::size_t>(r)] = m;
    }
  });
  return out;
}

Tensor row_sum(const Tensor& x) {
  const std::int64_t n = x.dim(-1);
  const std::int64_t rows = leading_rows(x);
  Tensor out = Tensor::empty({rows});
  auto dx = x.data();
  auto dout = out.data();
  parallel_for(0, rows, row_grain(n), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float s = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) {
        s += dx[static_cast<std::size_t>(r * n + j)];
      }
      dout[static_cast<std::size_t>(r)] = s;
    }
  });
  return out;
}

}  // namespace ptdp::tensor
