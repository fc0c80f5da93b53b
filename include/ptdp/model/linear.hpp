#pragma once

// Tensor-parallel linear layers (Fig. 5 of the paper).
//
// ColumnParallelLinear splits the weight along output columns; its input is
// replicated across tensor-parallel ranks, and the conjugate operator f
// (identity forward, all-reduce backward) lives in its backward pass.
// RowParallelLinear splits along input rows; its conjugate g (all-reduce
// forward, identity backward) lives in its forward pass. Either collapses
// to a plain linear layer when the communicator has size 1.

#include <string>

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/param.hpp"
#include "ptdp/quant/quant.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::model {

/// Activations a linear layer must stash for its backward pass.
struct LinearCache {
  tensor::Tensor input;  ///< forward input (replicated or local shard)
};

class ColumnParallelLinear {
 public:
  /// Weight is logically [in, out]; this rank holds columns
  /// [rank*out/t, (rank+1)*out/t). `skip_bias_add` leaves the (sharded)
  /// bias un-applied so a fused kernel can consume it. `dtype` is the
  /// weight's STORAGE dtype: init draws in f32 (identical bits regardless
  /// of dtype) then rounds, gradients and the bias stay f32 (DESIGN.md §13).
  ColumnParallelLinear(std::string name, std::int64_t in, std::int64_t out,
                       dist::Comm tp, float stddev, std::uint64_t seed,
                       bool skip_bias_add = false,
                       tensor::DType dtype = tensor::DType::kF32);

  /// x: [n, in] replicated. Returns [n, out/t] (bias applied unless skipped).
  tensor::Tensor forward(const tensor::Tensor& x, LinearCache& cache);

  /// dy: [n, out/t]. Accumulates weight/bias grads; returns dx [n, in],
  /// all-reduced across the tensor group (operator f backward).
  tensor::Tensor backward(const tensor::Tensor& dy, const LinearCache& cache);

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::int64_t out_per_rank() const { return out_per_rank_; }
  void collect_params(ParamRefs& out);

  /// Serving-only: repack the weight shard into blockwise-quantized form
  /// (DESIGN.md §17) and release the f32/bf16 master storage. Forward then
  /// dispatches the quantized GEMM; backward CHECK-fails (quantized weights
  /// have no gradient).
  void quantize_weight(tensor::QuantKind kind, std::int64_t group_size);
  bool quantized() const { return qweight_.defined(); }
  quant::QuantizedWeight& quantized_weight() { return qweight_; }
  const quant::QuantizedWeight& quantized_weight() const { return qweight_; }
  const std::string& weight_name() const { return weight_.name; }

 private:
  std::string name_;
  dist::Comm tp_;
  std::int64_t in_, out_, out_per_rank_;
  bool skip_bias_add_;
  Param weight_;  ///< [in, out/t]
  Param bias_;    ///< [out/t]
  quant::QuantizedWeight qweight_;  ///< serving-only packed form of weight_
};

class RowParallelLinear {
 public:
  /// Weight is logically [in, out]; this rank holds rows
  /// [rank*in/t, (rank+1)*in/t). The input is expected to already be
  /// parallel (the output of a ColumnParallelLinear). The bias is
  /// replicated and applied once after the all-reduce (or skipped).
  RowParallelLinear(std::string name, std::int64_t in, std::int64_t out,
                    dist::Comm tp, float stddev, std::uint64_t seed,
                    bool skip_bias_add = false,
                    tensor::DType dtype = tensor::DType::kF32);

  /// x: [n, in/t] local shard. Returns [n, out] replicated (operator g
  /// forward = all-reduce), bias applied unless skipped.
  tensor::Tensor forward(const tensor::Tensor& x, LinearCache& cache);

  /// dy: [n, out] replicated. Returns dx [n, in/t]; no communication
  /// (operator g backward = identity). When bias is skipped the caller is
  /// responsible for accumulating the bias gradient (fused kernels do).
  tensor::Tensor backward(const tensor::Tensor& dy, const LinearCache& cache);

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::int64_t in_per_rank() const { return in_per_rank_; }
  void collect_params(ParamRefs& out);

  /// See ColumnParallelLinear::quantize_weight. Groups run along the local
  /// K shard (in/t rows); a group size dividing in/t keeps t=1 and t=2
  /// quantization bitwise-consistent (quant.hpp shard-alignment rule).
  void quantize_weight(tensor::QuantKind kind, std::int64_t group_size);
  bool quantized() const { return qweight_.defined(); }
  quant::QuantizedWeight& quantized_weight() { return qweight_; }
  const quant::QuantizedWeight& quantized_weight() const { return qweight_; }
  const std::string& weight_name() const { return weight_.name; }

 private:
  std::string name_;
  dist::Comm tp_;
  std::int64_t in_, out_, in_per_rank_;
  bool skip_bias_add_;
  Param weight_;  ///< [in/t, out]
  Param bias_;    ///< [out], replicated across tensor ranks
  quant::QuantizedWeight qweight_;  ///< serving-only packed form of weight_
};

}  // namespace ptdp::model
