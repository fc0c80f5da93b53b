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
/// c[m,n] += A[k,m]ᵀ · B[k,n] in place (c is f32): a weight grad takes its
/// product without a temporary. Each 256-deep k panel adds into c in
/// order; on zero-filled c the result is bitwise matmul_tn(a, b).
void add_matmul_tn_(Tensor& c, const Tensor& a, const Tensor& b);

/// True when bf16 × bf16 products run on the AMX tile engine in this
/// process (an AMX build whose kernel granted the tile state); otherwise
/// they take the widening path. Benches stamp it next to their timings.
bool bf16_gemm_on_amx();

/// Batched: C[B,m,n] = A[B,m,k] · B[B,k,n]
Tensor bmm(const Tensor& a, const Tensor& b);
/// Batched: C[B,m,n] = A[B,m,k] · B[B,n,k]ᵀ
Tensor bmm_nt(const Tensor& a, const Tensor& b);
/// Batched: C[B,m,n] = A[B,k,m]ᵀ · B[B,k,n]
Tensor bmm_tn(const Tensor& a, const Tensor& b);

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

/// Dropout at probability p: element e of x (row-major) is dropped to 0 when
/// draw e of `rng`'s stream, Rng::u64_at(e), is a bernoulli(·, p) success,
/// and scaled by 1/(1 − p) otherwise; p == 0 is identity. The mask is a
/// function of (stream, e), so it is never stored: the backward redraws it.
/// The stream's counter is not read. Bitwise equal at any thread count.
Tensor dropout(const Tensor& x, float p, const Rng& rng);
/// dX = dy ⊙ the mask dropout(·, p, rng) applied, redrawn.
Tensor dropout_backward(const Tensor& dy, float p, const Rng& rng);

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
// scale+mask+softmax to keep the operator graph compute-bound. (c) lives
// inside attention() and attention_backward() below, which fuse the
// attention GEMMs around it (the backward recomputes P rather than reading
// a saved copy); the unfused compositions exist above so benches can
// measure the win.

/// y = GeLU(x + bias). x is [..., n], bias [n].
Tensor fused_bias_gelu(const Tensor& x, const Tensor& bias);
/// Returns dX; accumulates the bias grad into `dbias` ([n], pre-zeroed by caller).
Tensor fused_bias_gelu_backward(const Tensor& dy, const Tensor& x, const Tensor& bias,
                                Tensor& dbias);

/// y = dropout(x + bias, p, rng) + residual in one pass over the rows, rows
/// in parallel. Element e draws what dropout() draws for it, and per element
/// this rounds exactly like add_bias -> dropout -> add_, so it is bitwise
/// equal to that composition; its backward is dropout_backward(dy, p, rng).
Tensor fused_bias_dropout_add(const Tensor& x, const Tensor& bias,
                              const Tensor& residual, float p, const Rng& rng);

// ---- attention -----------------------------------------------------------------

/// Where one sequence of an attention() call reads and writes. Head h of
/// query row i (i < m) is the dk floats at q + i·q_stride + h·q_head_stride
/// (the call's); head h of key (value) position j < len = k.size() is at
/// k[j] + h·kv_head_stride (v[j] + ...); head h of context row i goes to
/// out + i·out_stride + h·dk. With dropout, head h of query i drops key j
/// when draw i·len + j of drop[h] is a bernoulli(·, drop_p) success (the
/// index of a [heads, m, len] mask's row-major slab h) and scales it by
/// 1/(1 − drop_p) otherwise; the kernels draw the bits where they use them.
struct AttentionSeq {
  const float* q = nullptr;
  std::int64_t q_stride = 0;
  std::int64_t m = 0;
  std::int64_t pos = 0;  ///< causal: query i sees keys [0, pos + i]
  std::span<const float* const> k, v;
  std::int64_t kv_head_stride = 0;
  float* out = nullptr;
  std::int64_t out_stride = 0;
  std::span<const Rng> drop = {};  ///< one stream per head, or empty: no dropout
  float drop_p = 0.0f;
};

struct AttentionShape {
  std::int64_t heads = 0, dk = 0;
  std::int64_t q_head_stride = 0;
  float scale = 1.0f;
  bool causal = true;  ///< false: every query sees all len keys (BERT)
};

/// softmax(scale · q kᵀ + mask) · v for every head of every sequence, on
/// one parallel_for over (sequence, head, query block) tasks. Each output
/// row is a pure function of its query row and the rows it sees, in one
/// fixed arithmetic order, so an m-row call at offset pos equals rows
/// [pos, pos + m) of the full call bit for bit at any thread count.
void attention(std::span<const AttentionSeq> seqs, const AttentionShape& shape);

/// Gradients of one attention() sequence: `seq` is the forward's (its `out`
/// unused), dO rows are laid out like its context rows, dQ rows like its
/// query rows (head h of row i at dq + i·dq_stride + h·q_head_stride), and
/// dK (dV) of position j goes to dk[j] + h·kv_head_stride (dv[j] + ...).
/// Every dQ/dK/dV head is overwritten; no two positions may share a row.
struct AttentionGradSeq {
  AttentionSeq seq;
  const float* dout = nullptr;
  std::int64_t dout_stride = 0;
  float* dq = nullptr;
  std::int64_t dq_stride = 0;
  std::span<float* const> dk, dv;
};

/// The backward of attention() in two deterministic phases, with P
/// recomputed by the forward's own arithmetic (bitwise the P the forward
/// used) instead of read from a saved copy. Phase 1, per (sequence, head,
/// query block): dP_i = dO_i·Vᵀ, dS_i = scale·P_i ⊙ (dP_i ⊙ mask −
/// Σ_j P_ij (dP ⊙ mask)_ij) and dq_i = Σ_j dS_ij k_j, j ascending, with the
/// dropout mask redrawn from the forward's streams. Phase 2,
/// per (sequence, head, key block): dk_j = Σ_i dS_ij q_i and
/// dv_j = Σ_i (P ⊙ mask)_ij dO_i, i ascending. Each output element is
/// written by one task in one fixed order, so results are bitwise equal at
/// any thread count.
void attention_backward(std::span<const AttentionGradSeq> seqs,
                        const AttentionShape& shape);

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
