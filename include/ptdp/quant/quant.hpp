#pragma once

// ptdp::quant — weight-only quantized storage for the serving path
// (DESIGN.md §17). A QuantizedWeight is the packed form of one linear
// layer's [k, n] weight shard: payload bytes, per-(group, column) f32
// scales, and u8 zero-points, in the ptdp::tensor panel layout
// (tensor/quant_ops.hpp). All three live in Tensors drawn from the
// ptdp::mem pool, so byte accounting and checkpoint CRCs come for free.
//
// Shard-alignment rule, a property of quantize(): groups run along K (the
// reduction dimension) and columns are packed in kQuantPanel-wide panels.
// Column-parallel shards split N, so a panel-aligned column slice keeps
// every per-column group; row-parallel shards split K, so a group size
// dividing K/t makes each rank's groups a contiguous sub-range of the
// full-weight groups. Under that rule dequantize(quantize(shard)) is
// BITWISE the same slice of dequantize(quantize(full)), so t ∈ {1, 2}
// serve the same weights.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/tensor/quant_ops.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::quant {

struct QuantizedWeight {
  tensor::QuantKind kind = tensor::QuantKind::kInt8;
  std::int64_t rows = 0;        ///< k (reduction dim of the GEMM)
  std::int64_t cols = 0;        ///< n (output dim)
  std::int64_t group_size = 0;  ///< rows per (scale, zero-point) group
  // Storage: payload/zeros are byte arrays carried in f32 tensors (numel =
  // ceil(bytes/4), tail zero-filled) so the pool and checkpoint CRC see
  // ordinary tensors.
  tensor::Tensor payload;
  tensor::Tensor scales;  ///< f32 [ngroups * npanels * kQuantPanel]
  tensor::Tensor zeros;   ///< u8, packed like payload

  bool defined() const { return rows > 0; }
  std::int64_t payload_bytes() const;
  std::int64_t meta_elems() const;
  /// Exact quantized footprint: payload + scales (4B) + zeros (1B each).
  std::int64_t quant_bytes() const;
  /// The packed weight in place, as tensor::quant_unpack/gemm_f32xq read it.
  tensor::QuantView view() const;

  std::uint8_t* payload_u8();
  const std::uint8_t* payload_u8() const;
  std::uint8_t* zeros_u8();
  const std::uint8_t* zeros_u8() const;
};

/// Largest divisor of k_rows that is <= requested: the group size actually
/// used, so any (group, shard) combination quantizes instead of failing.
/// For exact t=1 vs t=2 row-shard equality pick a group dividing K/t.
std::int64_t effective_group_size(std::int64_t requested, std::int64_t k_rows);

/// Quantize a [k, n] f32 (or bf16, widened first) weight. group_size is
/// clamped via effective_group_size.
QuantizedWeight quantize(const tensor::Tensor& w, tensor::QuantKind kind,
                         std::int64_t group_size);

/// ŵ [k, n] f32 — exactly what the quantized GEMM multiplies by.
tensor::Tensor dequantize(const QuantizedWeight& w);

/// C = a · dequant(w): a is [..., k] f32, result [..., n] f32. Runs
/// tensor::gemm_f32xq, so it is bitwise tensor::matmul(a, dequantize(w))
/// at any m and thread count.
tensor::Tensor matmul(const tensor::Tensor& a, const QuantizedWeight& w);

// ---- dtype-tagged checkpoints ----------------------------------------------

/// A named quantized weight for the checkpoint helpers.
struct NamedQuant {
  std::string name;
  QuantizedWeight* weight = nullptr;
};

/// Collective committed save (ckpt::commit_checkpoint) over `tp` of every
/// rank's quantized shards under `dir`, the manifest dtype-tagged
/// "int8"/"q4" so a resume at the wrong precision regime is rejected before
/// any shard opens.
void save_quantized_checkpoint(const std::string& dir, std::uint64_t step,
                               const dist::Comm& tp,
                               const std::vector<NamedQuant>& weights,
                               tensor::QuantKind kind);

/// Collective load of the newest valid checkpoint whose manifest dtype
/// matches `kind` (ckpt::resolve_checkpoint) into `weights` (matched by
/// name; geometry must agree — quantize first to size the tensors, then
/// load overwrites the bytes). Returns the step, or nullopt when no
/// committed checkpoint exists. CHECK-fails if the newest valid checkpoint
/// was written at a different dtype.
std::optional<std::uint64_t> load_quantized_checkpoint(
    const std::string& dir, const dist::Comm& tp,
    const std::vector<NamedQuant>& weights, tensor::QuantKind kind);

}  // namespace ptdp::quant
