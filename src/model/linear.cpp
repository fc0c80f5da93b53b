#include "ptdp/model/linear.hpp"

#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

using tensor::Tensor;

namespace {

// Mixed-precision GEMM input rule (DESIGN.md §13): when the layer stores
// bf16 weights, the activation operand of the forward and the upstream
// gradient of the backward are narrowed to bf16 as well, so every product
// runs both operands at storage precision (and hits the native bf16 kernel
// where the CPU has one) while accumulation, weight grads and the returned
// activations stay f32. The narrowed input is what the cache keeps, halving
// cached-activation bytes. f32 layers pass through untouched.
Tensor gemm_input(const Tensor& x, const Tensor& weight) {
  if (weight.dtype() == tensor::DType::kBf16 &&
      x.dtype() == tensor::DType::kF32) {
    return x.to(tensor::DType::kBf16);
  }
  return x;
}

// Quantize-once at serving load: repack the (widened-to-f32) weight shard
// and release the master storage. Shared by both layer flavors.
void quantize_param(Param& weight, quant::QuantizedWeight& qweight,
                    tensor::QuantKind kind, std::int64_t group_size) {
  qweight = quant::quantize(weight.value, kind, group_size);
  weight.value = Tensor();
  weight.grad = Tensor();
}

}  // namespace

ColumnParallelLinear::ColumnParallelLinear(std::string name, std::int64_t in,
                                           std::int64_t out, dist::Comm tp,
                                           float stddev, std::uint64_t seed,
                                           bool skip_bias_add, tensor::DType dtype)
    : name_(std::move(name)), tp_(std::move(tp)), in_(in), out_(out),
      skip_bias_add_(skip_bias_add) {
  const int t = tp_.size();
  PTDP_CHECK_EQ(out_ % t, 0) << name_ << ": out=" << out_ << " not divisible by t=" << t;
  out_per_rank_ = out_ / t;
  const std::int64_t c0 = tp_.rank() * out_per_rank_;
  const std::int64_t c1 = c0 + out_per_rank_;
  weight_ = Param{name_ + ".weight",
                  init_weight_shard(name_ + ".weight", in_, out_, c0, c1, stddev, seed)
                      .to(dtype),
                  Tensor({in_, out_per_rank_}), /*replicated=*/false};
  // Biases init to zero (standard GPT practice); still keyed by shard range.
  bias_ = Param{name_ + ".bias", Tensor({out_per_rank_}), Tensor({out_per_rank_}),
                /*replicated=*/false};
}

Tensor ColumnParallelLinear::forward(const Tensor& x, LinearCache& cache) {
  PTDP_CHECK_EQ(x.dim(-1), in_) << name_;
  if (quantized()) {
    PTDP_CHECK(x.dtype() == tensor::DType::kF32) << name_;
    cache.input = x;
    Tensor y = quant::matmul(x, qweight_);
    if (!skip_bias_add_) y = tensor::add_bias(y, bias_.value);
    return y;
  }
  cache.input = gemm_input(x, weight_.value);  // f32: shares storage; cheap
  Tensor y = tensor::matmul(cache.input, weight_.value);
  if (!skip_bias_add_) y = tensor::add_bias(y, bias_.value);
  return y;
}

Tensor ColumnParallelLinear::backward(const Tensor& dy, const LinearCache& cache) {
  PTDP_CHECK(!quantized()) << name_ << ": quantized weights have no gradient";
  PTDP_CHECK_EQ(dy.dim(-1), out_per_rank_) << name_;
  // dy narrowed once for both GEMMs; the bias grad reads it unrounded.
  const Tensor dy_gemm = gemm_input(dy, weight_.value);
  // dW += xᵀ·dy ; dbias += colsum(dy) unless a fused kernel owns it.
  tensor::add_matmul_tn_(weight_.grad, cache.input, dy_gemm);
  if (!skip_bias_add_) tensor::add_(bias_.grad, tensor::bias_grad(dy));
  // dx = dy·Wᵀ, then operator f backward: all-reduce over tensor ranks.
  Tensor dx = tensor::matmul_nt(dy_gemm, weight_.value);
  tp_.all_reduce(dx.data());
  return dx;
}

void ColumnParallelLinear::collect_params(ParamRefs& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

void ColumnParallelLinear::quantize_weight(tensor::QuantKind kind,
                                           std::int64_t group_size) {
  quantize_param(weight_, qweight_, kind, group_size);
}

RowParallelLinear::RowParallelLinear(std::string name, std::int64_t in,
                                     std::int64_t out, dist::Comm tp, float stddev,
                                     std::uint64_t seed, bool skip_bias_add,
                                     tensor::DType dtype)
    : name_(std::move(name)), tp_(std::move(tp)), in_(in), out_(out),
      skip_bias_add_(skip_bias_add) {
  const int t = tp_.size();
  PTDP_CHECK_EQ(in_ % t, 0) << name_ << ": in=" << in_ << " not divisible by t=" << t;
  in_per_rank_ = in_ / t;
  const std::int64_t r0 = tp_.rank() * in_per_rank_;
  const std::int64_t r1 = r0 + in_per_rank_;
  weight_ = Param{
      name_ + ".weight",
      init_weight_row_shard(name_ + ".weight", in_, out_, r0, r1, stddev, seed)
          .to(dtype),
      Tensor({in_per_rank_, out_}), /*replicated=*/false};
  bias_ = Param{name_ + ".bias", Tensor({out_}), Tensor({out_}),
                /*replicated=*/true};
}

Tensor RowParallelLinear::forward(const Tensor& x, LinearCache& cache) {
  PTDP_CHECK_EQ(x.dim(-1), in_per_rank_) << name_;
  if (quantized()) {
    PTDP_CHECK(x.dtype() == tensor::DType::kF32) << name_;
    cache.input = x;
    Tensor y = quant::matmul(x, qweight_);
    // Operator g forward still applies: partial products across tensor ranks.
    tp_.all_reduce(y.data());
    if (!skip_bias_add_) y = tensor::add_bias(y, bias_.value);
    return y;
  }
  cache.input = gemm_input(x, weight_.value);
  Tensor y = tensor::matmul(cache.input, weight_.value);
  // Operator g forward: sum partial products across tensor ranks.
  tp_.all_reduce(y.data());
  if (!skip_bias_add_) y = tensor::add_bias(y, bias_.value);
  return y;
}

Tensor RowParallelLinear::backward(const Tensor& dy, const LinearCache& cache) {
  PTDP_CHECK(!quantized()) << name_ << ": quantized weights have no gradient";
  PTDP_CHECK_EQ(dy.dim(-1), out_) << name_;
  const Tensor dy_gemm = gemm_input(dy, weight_.value);
  tensor::add_matmul_tn_(weight_.grad, cache.input, dy_gemm);
  if (!skip_bias_add_) tensor::add_(bias_.grad, tensor::bias_grad(dy));
  // Operator g backward: identity (dy is replicated; each rank extracts the
  // slice of dx its weight rows produce).
  return tensor::matmul_nt(dy_gemm, weight_.value);
}

void RowParallelLinear::collect_params(ParamRefs& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

void RowParallelLinear::quantize_weight(tensor::QuantKind kind,
                                        std::int64_t group_size) {
  quantize_param(weight_, qweight_, kind, group_size);
}

}  // namespace ptdp::model
