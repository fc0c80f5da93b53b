#pragma once

// Kernel library over Tensor: GEMMs, elementwise ops, normalization,
// softmax, embedding, and losses — each with the explicit backward kernel
// the hand-written transformer backprop needs. Forward/backward pairs
// follow the convention: backward takes upstream grad `dy` plus whatever
// the forward stashed, and returns input grads.

#include <cstdint>
#include <span>

#include "ptdp/tensor/tensor.hpp"

namespace ptdp::tensor {

// ---- GEMM -------------------------------------------------------------------
//
// All matrices are row-major. The _nt/_tn suffix names which operand is
// transposed, matching BLAS mnemonics. These three cover every product a
// linear layer's forward and backward need.
//
// Dtype: each input may independently be f32 or bf16 (bf16 operands are
// widened inline while packing panels); the output and the accumulation
// are always f32, so results stay bitwise-deterministic across thread
// counts at any input dtype. Every other kernel in this library is
// f32-only (layernorm/softmax/losses stay fp32-compute — DESIGN.md §13).

/// C[m,n] = A[m,k] · B[k,n]
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] · B[n,k]ᵀ
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// C[m,n] = A[k,m]ᵀ · B[k,n]
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Batched: C[B,m,n] = A[B,m,k] · B[B,k,n]
Tensor bmm(const Tensor& a, const Tensor& b);
/// Batched: C[B,m,n] = A[B,m,k] · B[B,n,k]ᵀ
Tensor bmm_nt(const Tensor& a, const Tensor& b);
/// Batched: C[B,m,n] = A[B,k,m]ᵀ · B[B,k,n]
Tensor bmm_tn(const Tensor& a, const Tensor& b);

/// Decode attention's K or V read where the KV cache keeps it: head h of
/// position p is the dk floats at rows[p] + h·head_stride. Products equal
/// the contiguous [heads, len, dk] operand's bit for bit.
struct HeadRows {
  std::span<const float* const> rows;
  std::int64_t head_stride = 0;
  std::int64_t dk = 0;
};
/// Batched over heads: C[h,m,len] = A[h,m,dk] · K_hᵀ
Tensor bmm_nt(const Tensor& a, const HeadRows& b);
/// Batched over heads: C[h,m,dk] = A[h,m,len] · V_h
Tensor bmm(const Tensor& a, const HeadRows& b);

// ---- elementwise -------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float alpha);
/// a += b (in place).
void add_(Tensor& a, const Tensor& b);
/// y += alpha * x (in place).
void axpy_(Tensor& y, float alpha, const Tensor& x);
/// a *= alpha (in place).
void scale_(Tensor& a, float alpha);

/// y[r, :] = x[r, :] + bias for every leading row r. x is [..., n], bias [n].
Tensor add_bias(const Tensor& x, const Tensor& bias);
/// Gradient of a broadcast bias: column sums of dy ([..., n] -> [n]).
Tensor bias_grad(const Tensor& dy);

// ---- activations ---------------------------------------------------------------

/// GeLU with the tanh approximation used by GPT-2/Megatron. tanh runs
/// through a vectorized exp (relative error ~1e-7 against std::tanh);
/// results are bitwise independent of the intra-op thread count.
Tensor gelu(const Tensor& x);
/// dX given upstream dy and the forward *input* x.
Tensor gelu_backward(const Tensor& dy, const Tensor& x);

/// Dropout at probability p. Returns y and writes the kept-mask (0/1 scaled
/// by 1/(1-p)) into `mask` (allocated to x's shape). p == 0 is identity.
Tensor dropout(const Tensor& x, float p, Rng& rng, Tensor& mask);
/// dX = dy * mask.
Tensor dropout_backward(const Tensor& dy, const Tensor& mask);

// ---- normalization -------------------------------------------------------------

struct LayerNormResult {
  Tensor y;     ///< normalized output, same shape as x
  Tensor mean;  ///< per-row mean [rows]
  Tensor rstd;  ///< per-row reciprocal stddev [rows]
};

/// LayerNorm over the last dimension. x is [..., n]; gamma/beta are [n].
LayerNormResult layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                          float eps = 1e-5f);

struct LayerNormGrads {
  Tensor dx;
  Tensor dgamma;
  Tensor dbeta;
};

LayerNormGrads layernorm_backward(const Tensor& dy, const Tensor& x,
                                  const Tensor& gamma, const Tensor& mean,
                                  const Tensor& rstd);

// ---- softmax -------------------------------------------------------------------

/// Numerically-stable softmax over the last dimension.
Tensor softmax_lastdim(const Tensor& x);
/// dX from the softmax *output* y: dx = y ⊙ (dy − Σ(y ⊙ dy)).
Tensor softmax_backward(const Tensor& y, const Tensor& dy);

// ---- fused kernels (§4.2) ------------------------------------------------------
//
// The paper fuses (a) bias+GeLU, (b) bias+dropout+add, and (c)
// scale+mask+softmax (general and implicit-causal variants) to keep the
// operator graph compute-bound. We provide the same fusions; the unfused
// compositions exist above so benches can measure the win.

/// y = GeLU(x + bias). x is [..., n], bias [n].
Tensor fused_bias_gelu(const Tensor& x, const Tensor& bias);
/// Returns dX; accumulates the bias grad into `dbias` ([n], pre-zeroed by caller).
Tensor fused_bias_gelu_backward(const Tensor& dy, const Tensor& x, const Tensor& bias,
                                Tensor& dbias);

/// y = dropout(x + bias, p) + residual in one pass over the rows. A non-null
/// `mask` is written as in dropout(); it may be null only at p = 0, for
/// callers that never read it. Per element this rounds exactly like
/// add_bias -> dropout -> add_ (the draws consume one RNG stream in element
/// order), so it is bitwise equal to that composition.
Tensor fused_bias_dropout_add(const Tensor& x, const Tensor& bias,
                              const Tensor& residual, float p, Rng& rng,
                              Tensor* mask);

/// Scaled causal softmax: y = softmax(scale * s + causal_mask) where s is
/// [rows, sq, sk] and position i may attend to keys j <= i + (sk - sq).
/// This is the "implicit causal masking" fused kernel for GPT.
Tensor fused_scale_causal_softmax(const Tensor& scores, float scl);

/// Scaled general-mask softmax: mask is [sq, sk] with 1 = masked out
/// (receives -inf), matching BERT-style padding masks.
Tensor fused_scale_mask_softmax(const Tensor& scores, const Tensor& mask, float scl);

/// Backward of either fused softmax: dScores = scale * softmax_backward(y, dy),
/// with masked positions already zero in y.
Tensor fused_scale_softmax_backward(const Tensor& y, const Tensor& dy, float scl);

// ---- embedding -----------------------------------------------------------------

/// Gather rows: out[i, :] = table[ids[i], :]. ids values must be in [0, V).
Tensor embedding(const Tensor& table, std::span<const std::int32_t> ids);
/// Scatter-add into dtable ([V, h], pre-zeroed or accumulating).
void embedding_backward(const Tensor& dy, std::span<const std::int32_t> ids,
                        Tensor& dtable);

// ---- loss ----------------------------------------------------------------------

struct CrossEntropyResult {
  float loss;    ///< mean negative log-likelihood over rows
  Tensor probs;  ///< softmax(logits), stashed for backward
};

/// Mean cross-entropy over rows of logits [n, V] against integer targets.
CrossEntropyResult cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> targets);
/// dLogits = (probs − onehot(targets)) / n.
Tensor cross_entropy_backward(const Tensor& probs,
                              std::span<const std::int32_t> targets);

// ---- reductions ----------------------------------------------------------------

float sum_all(const Tensor& x);
float mean_all(const Tensor& x);
float max_all(const Tensor& x);
/// Sum of squares of all elements (for grad-norm clipping).
double squared_norm(const Tensor& x);
/// Per-row max over the last dimension: [..., n] -> [rows].
Tensor row_max(const Tensor& x);
/// Per-row sum over the last dimension.
Tensor row_sum(const Tensor& x);

}  // namespace ptdp::tensor
