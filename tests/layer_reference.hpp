#pragma once

// Test-only reference bodies for the transformer layer: the hand-written
// attention, MLP and block forward/backward (plus the §3.5 replay) that
// dispatch the kernel sequence the planned graph must reproduce. They are
// free functions over a graph::LayerBinding, so they drive the very modules
// and parameters a TransformerLayer binds. The plan-vs-reference suites
// compare the SequentialExecutor against them bitwise; the module-level
// tensor-parallel tests compare TP against serial through them.

#include <cstdint>
#include <vector>

#include "ptdp/graph/executor.hpp"
#include "ptdp/model/attention.hpp"
#include "ptdp/model/mlp.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::reference {

struct AttentionCache {
  model::LinearCache qkv;
  model::LinearCache proj;
  tensor::Tensor qkv_rows;  ///< QKV projection output [s·b, 3·h_local]
  std::vector<Rng> prob_streams;  ///< prob_dropout_streams (empty if p == 0)
  std::int64_t s = 0, b = 0;
};

struct MlpCache {
  model::LinearCache fc1;
  model::LinearCache fc2;
  tensor::Tensor fc1_out;  ///< pre-bias, pre-GeLU [n, 4h/t]
};

struct LayerCache {
  tensor::Tensor input;  ///< [s, b, h]
  tensor::LayerNormResult ln1, ln2;
  AttentionCache attn;
  MlpCache mlp;
  tensor::Tensor h1;  ///< post-attention residual stream [s*b, h]
  tensor::Tensor attn_resid_mask, mlp_resid_mask;  ///< explicit, as dropout_mask
};

/// The attention-probability dropout streams of a b-sequence microbatch:
/// entry bi·a_l + h is local head h of sequence bi, keyed by
/// bi·heads + global head, so tensor-parallel ranks draw what the serial
/// model draws.
std::vector<Rng> prob_dropout_streams(const graph::LayerBinding& bind,
                                      std::int64_t b, std::uint64_t mb_tag);
/// The explicit [b·a_l, s, s] mask those streams draw, element by element
/// with next_bernoulli (0 or 1/(1 − p)): the oracle for the kernels, which
/// draw each bit where they use it.
tensor::Tensor prob_dropout_mask(const graph::LayerBinding& bind, std::int64_t b,
                                 std::uint64_t mb_tag);
/// The explicit mask of a residual dropout site over [rows, h]: element e is
/// draw e of the site's stream, by next_bernoulli.
tensor::Tensor dropout_mask(const graph::LayerBinding& bind, model::DropSite site,
                            std::int64_t rows, std::uint64_t mb_tag);

/// Bindings over a standalone attention or MLP module. `config` supplies
/// the runtime dropout/causal flags and must outlive the binding.
graph::LayerBinding bind_attention(model::ParallelAttention& attn,
                                   const model::GptConfig& config,
                                   std::int64_t layer_idx);
graph::LayerBinding bind_mlp(model::ParallelMlp& mlp,
                             const model::GptConfig& config,
                             std::int64_t layer_idx);

/// x: [s, b, h] replicated across tensor ranks. Returns [s, b, h]
/// (all-reduced by the row-parallel projection) with the projection bias
/// NOT applied.
tensor::Tensor attention_forward(const graph::LayerBinding& bind,
                                 const tensor::Tensor& x, AttentionCache& cache,
                                 std::uint64_t mb_tag);
/// dy: [s, b, h] replicated. Returns dx [s, b, h]; accumulates grads.
tensor::Tensor attention_backward(const graph::LayerBinding& bind,
                                  const tensor::Tensor& dy,
                                  const AttentionCache& cache);

/// x: [s, b, h] replicated. Returns [s, b, h] without the fc2 bias.
tensor::Tensor mlp_forward(const graph::LayerBinding& bind,
                           const tensor::Tensor& x, MlpCache& cache);
/// dy: [s, b, h] replicated. Returns dx [s, b, h]; accumulates grads.
tensor::Tensor mlp_backward(const graph::LayerBinding& bind,
                            const tensor::Tensor& dy, const MlpCache& cache);

/// The whole block (a TransformerLayer's binding()).
tensor::Tensor layer_forward(const graph::LayerBinding& bind,
                             const tensor::Tensor& x, LayerCache& cache,
                             std::uint64_t mb_tag);
tensor::Tensor layer_backward(const graph::LayerBinding& bind,
                              const tensor::Tensor& dy, const LayerCache& cache);
/// §3.5 replay: rebuilds the cache from cache.input with the original
/// `mb_tag` (counter-based RNG streams replay bitwise), then backward.
tensor::Tensor layer_backward_recompute(const graph::LayerBinding& bind,
                                        const tensor::Tensor& dy,
                                        LayerCache& cache, std::uint64_t mb_tag);

}  // namespace ptdp::reference
