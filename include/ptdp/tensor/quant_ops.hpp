#pragma once

// Blockwise weight-only quantization format (DESIGN.md §17): the raw
// pack/unpack layer under ptdp::quant. Weights [k, n] (row-major, the
// linear-layer storage layout) are quantized per GROUP — `group` consecutive
// rows of one output column share an f32 scale and a u8 zero-point — and
// packed into kQuantPanel-column panels:
//
//   int8  payload[(jp*k + kk)*16 + j]      one byte per (row kk, col jp*16+j)
//   q4    payload[(jp*k + kk)*8  + j]      lo nibble = col jp*16+j,
//                                          hi nibble = col jp*16+j+8
//   scales[(gi*npanels + jp)*16 + j]       f32, group gi of col jp*16+j
//   zeros [(gi*npanels + jp)*16 + j]       u8, same indexing
//
// Dequantization is w ≈ (q - z)·s with q, z unsigned; the scale is widened
// after rounding the zero-point so both group extremes stay representable,
// giving max|ŵ - w| ≤ (max - min)/Q per group (Q = 255 for int8, 15 for
// q4).
//
// The GEMM is not here. A panel is exactly one kNR-column B sliver of the
// tensor GEMM's small-m driver (src/tensor/ops.cpp), so gemm_f32xq runs that
// driver with the payload as its B source: the partition, the 256-deep k
// panels and the epilogue are the f32 driver's, and each k step dequantizes
// its 16 weights with the arithmetic quant_unpack applies. quant::matmul(a,
// w) is therefore bitwise tensor::matmul(a, dequantize(w)) for every m and
// at any thread count, while the weight streams at 1 (or 0.5) bytes per
// element instead of 4.

#include <cstdint>

namespace ptdp::tensor {

/// Quantized weight storage formats. quant_kind_name() tags checkpoint
/// manifests, so the names are stable.
enum class QuantKind : std::uint8_t {
  kInt8 = 0,  ///< 8-bit, Q = 255, ~4x smaller than f32
  kQ4 = 1,    ///< 4-bit (two per byte), Q = 15, ~8x smaller
};

/// Stable name ("int8"/"q4") for dumps, manifests, CLI flags.
const char* quant_kind_name(QuantKind kind);

/// Integer range top (255 or 15).
std::int64_t quant_levels(QuantKind kind);

/// Panel width of the packed layout (columns per panel). The GEMM asserts
/// it equals its B sliver width.
inline constexpr std::int64_t kQuantPanel = 16;

inline std::int64_t quant_num_panels(std::int64_t n) {
  return (n + kQuantPanel - 1) / kQuantPanel;
}

/// Payload bytes of a packed [k, n] weight (k rows, zero-padded panels).
std::int64_t quant_payload_bytes(QuantKind kind, std::int64_t k, std::int64_t n);

/// Element count of the scales (f32) and zeros (u8) arrays: one per
/// (group, panel column). Requires group | k.
std::int64_t quant_meta_elems(std::int64_t k, std::int64_t n, std::int64_t group);

/// Quantize + pack row-major w [k, n]. `scales`/`zeros` receive
/// quant_meta_elems entries; `payload` receives quant_payload_bytes bytes.
/// Padding columns of the last panel get scale 0 / zero 0 / payload 0, so
/// packed bytes are a pure function of (w, kind, group) — bitwise
/// comparable across ranks.
void quant_pack(QuantKind kind, const float* w, std::int64_t k, std::int64_t n,
                std::int64_t group, std::uint8_t* payload, float* scales,
                std::uint8_t* zeros);

/// A packed [k, n] weight read where it sits (the layout above).
struct QuantView {
  QuantKind kind = QuantKind::kInt8;
  const std::uint8_t* payload = nullptr;
  const float* scales = nullptr;
  const std::uint8_t* zeros = nullptr;
  std::int64_t k = 0, n = 0, group = 0;
};

/// Reconstruct rows [k0, k0 + kc) of column panel jp into out (row stride
/// ldo), its first `cols` columns: ŵ = (q - z)·s, the exact arithmetic the
/// GEMM applies per element. Padding columns come out 0.
void quant_unpack_panel(const QuantView& w, std::int64_t jp, std::int64_t k0,
                        std::int64_t kc, std::int64_t cols, float* out,
                        std::int64_t ldo);

/// Reconstruct ŵ [k, n] row-major.
void quant_unpack(const QuantView& w, float* out);

/// C[m, n] = A[m, k] · ŵ, A and C dense row-major f32; C is fully
/// overwritten. Defined with the GEMM driver in ops.cpp (see above).
void gemm_f32xq(const QuantView& w, std::int64_t m, const float* a, float* c);

}  // namespace ptdp::tensor
