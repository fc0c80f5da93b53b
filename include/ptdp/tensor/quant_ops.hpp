#pragma once

// Blockwise weight-only quantization kernels (DESIGN.md §17): the raw
// pack/unpack/GEMM layer under ptdp::quant. Weights [k, n] (row-major, the
// linear-layer storage layout) are quantized per GROUP — `group` consecutive
// rows of one output column share an f32 scale and a u8 zero-point — and
// packed into kQuantPanel-column panels so the GEMM streams the panel a
// whole cache line of columns at a time:
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
// q4). gemm_f32xq dequantizes inside the packed-panel inner loop —
// the weight matrix is streamed at 1 (or 0.5) bytes per element instead of
// 4, which is the whole win in the memory-bandwidth-bound decode regime.
// Accumulation per output element is serial over k within one panel task,
// so results are bitwise-deterministic across thread counts.

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

/// Panel width of the packed layout (columns per panel).
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

/// Reconstruct ŵ [k, n] row-major: ŵ = (q - z)·s, the exact arithmetic the
/// GEMM kernels apply per element.
void quant_unpack(QuantKind kind, const std::uint8_t* payload, const float* scales,
                  const std::uint8_t* zeros, std::int64_t k, std::int64_t n,
                  std::int64_t group, float* w);

/// C[m,n] = A[m,k] · dequant(W)[k,n]. A and C are row-major f32 with leading
/// dimensions lda/ldc; W is the packed representation above, in format
/// `kind`. C is fully overwritten. Parallel over column panels (the natural
/// decomposition for the m ∈ {1..8} decode shapes where row-parallel GEMM
/// degenerates to one serial task); per (row, panel) the k loop is serial,
/// so the result is bitwise-deterministic across thread counts.
void gemm_f32xq(QuantKind kind, std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, std::int64_t lda, const std::uint8_t* payload,
                const float* scales, const std::uint8_t* zeros, std::int64_t group,
                float* c, std::int64_t ldc);

}  // namespace ptdp::tensor
