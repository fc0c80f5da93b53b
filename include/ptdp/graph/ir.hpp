#pragma once

// ptdp::graph — a small static per-layer op-graph IR (DESIGN.md §14).
//
// A transformer block is described once as a LayerPlan: a shared value
// table plus two topologically-ordered node lists (forward and backward)
// whose nodes name existing tensor kernels, fused §4.2 kernels, or
// tensor-parallel module calls (linear fwd/bwd). The attention core is one kAttention node forward and one
// kAttentionBwd node backward (tensor::attention and
// tensor::attention_backward) in every plan. The builder emits the canonical
// *unfused* sequence from GptConfig; planner passes (passes.hpp) then fuse
// operators, propagate §13 dtypes, and assign lifetime-planned buffer
// slots. Activation recomputation is a plan transformation — the unified
// node order fwd ++ bwd *is* the recompute schedule, since backward nodes
// reference forward value ids directly. Incremental decode is an inference
// plan: the forward alone, whose kAttention node reads and writes the KV
// store (§16).
//
// The plan is the only body a layer has: training, recompute, evaluation
// and decode all execute it through the SequentialExecutor. RNG streams
// are rebuilt from (seed, mb_tag, layer, site) keys, so replays and
// tensor-parallel ranks draw identical masks. No mask is a plan value: the
// kernels that apply dropout draw its bits from the site's stream, and the
// backward kernels redraw them.

#include <cstdint>
#include <string>
#include <vector>

#include "ptdp/model/rng_sites.hpp"
#include "ptdp/tensor/dtype.hpp"

namespace ptdp::graph {

using ValueId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

/// Every operation a plan can schedule. Fused kinds are what the §4.2
/// kernels provide; their unfused counterparts exist only pre-fusion (and in
/// the unfused plans the §5.8 bench times) — the fusion pass rewrites them
/// jointly across the forward and backward graphs.
enum class OpKind : std::uint8_t {
  // structural (metadata views)
  kView2D,             ///< [s,b,h] -> [s*b,h] (zero-copy)
  kView3D,             ///< [s*b,h] -> [s,b,h] (zero-copy)
  // tensor-parallel module calls (keep their internal GEMM+all-reduce order)
  kLinearFwd,          ///< out0 = y, out1 = cached gemm input
  kLinearBwd,          ///< in0 = dy, in1 = cached input; accumulates grads
  // normalization
  kLayerNorm,          ///< out = y, mean, rstd
  kLayerNormBwd,       ///< accumulates dgamma/dbeta; out = dx
  // primitive elementwise
  kAddBias,
  kGelu,
  kGeluBwd,
  kDropout,            ///< site-keyed RNG
  kDropoutBwd,         ///< redraws its forward's mask: carries the same site
  kAdd,
  kBiasGradAccum,      ///< param.grad += bias_grad(in0)
  // fused kernels (§4.2)
  kFusedBiasGelu,
  kFusedBiasGeluBwd,
  kFusedBiasDropoutAdd,
  // the attention core (tensor::attention): in = qkv rows [sb,3h_l]; out =
  // context rows [sb,h_l]; with dropout the kernel draws the
  // attention-probability mask from the kAttentionProb streams. With
  // ExecContext::kv set it
  // writes each sequence's new K/V rows to the store and attends over the
  // store's rows (§16).
  kAttention,
  // its backward (tensor::attention_backward, P and the mask recomputed):
  // in = qkv rows, d context rows [sb,h_l]; out = d qkv rows [sb,3h_l].
  kAttentionBwd,
};

/// Stable span/dump name for an op ("graph.layernorm", ...). Static storage;
/// safe to hand to obs::Span.
const char* op_name(OpKind kind);

/// Which tensor-parallel linear module a kLinearFwd/kLinearBwd node drives.
enum class LinearSlot : std::int8_t { kQkv = 0, kProj, kFc1, kFc2 };

/// Which parameter a node reads or accumulates into.
enum class ParamSlot : std::int8_t {
  kLn1Gamma = 0,
  kLn1Beta,
  kLn2Gamma,
  kLn2Beta,
  kProjBias,
  kFc1Bias,
  kFc2Bias,
};
inline constexpr int kNumParamSlots = 7;

struct Node {
  OpKind kind;
  std::vector<ValueId> in;
  std::vector<ValueId> out;
  std::int8_t linear = -1;  ///< LinearSlot, for kLinear*
  std::int8_t param = -1;   ///< ParamSlot, for param-consuming kinds
  std::int8_t param2 = -1;  ///< second param (layernorm beta)
  model::DropSite site = model::DropSite::kEmbedding;  ///< RNG site for dropout kinds
  float scale = 0.0f;       ///< attention softmax scale
  bool causal = false;      ///< kAttention / kAttentionBwd causal mask
};

/// One tensor in the plan. Shape is symbolic (for dumps) plus a concrete
/// byte size at the reference microbatch b = 1 — every shape in a layer
/// scales linearly in b, so lifetime/slot planning at b = 1 stays valid for
/// any microbatch size.
struct Value {
  std::string name;
  std::string shape;            ///< symbolic, e.g. "[s*b, h]"
  std::int64_t ref_bytes = 0;   ///< bytes at b = 1 (dtype-aware)
  tensor::DType dtype = tensor::DType::kF32;
  // ---- analysis (filled by passes) ----
  // Node positions use the *unified* index: forward nodes 0..F-1, backward
  // nodes F..F+B-1 — the recompute schedule is exactly this order.
  std::int32_t def = -1;        ///< defining node; -1 = graph input
  std::int32_t last_use = -1;   ///< last consuming node; -1 = unused
  bool saved = false;           ///< defined in forward, consumed in backward
  bool pinned = false;          ///< caller-visible: never fused away/reused
  std::int32_t slot = -1;       ///< planned arena slot (plan_buffers)
};

/// Summary the buffer planner attaches to a plan.
struct BufferPlanStats {
  std::int32_t num_slots = 0;          ///< distinct planned arena slots
  std::int64_t slot_bytes = 0;         ///< Σ slot sizes (arena footprint, b=1)
  std::int64_t total_value_bytes = 0;  ///< Σ value sizes (no-reuse footprint)
  std::int64_t peak_bytes = 0;  ///< peak live bytes over the unified walk
  std::int64_t saved_bytes = 0; ///< Σ saved values: the fwd->bwd footprint
                                ///< (recompute keeps only the input instead)
};

/// A planned transformer block: shared value table + forward/backward node
/// lists. `input`/`output` bound the forward graph, `grad_in`/`grad_out`
/// the backward graph; backward nodes reference forward value ids for
/// everything `saved`.
struct LayerPlan {
  std::vector<Value> values;
  std::vector<Node> fwd;
  std::vector<Node> bwd;
  ValueId input = kNoValue;     ///< x [s,b,h]
  ValueId output = kNoValue;    ///< y [s,b,h]
  ValueId grad_in = kNoValue;   ///< dy [s,b,h]
  ValueId grad_out = kNoValue;  ///< dx [s,b,h]
  bool with_dropout = false;    ///< topology variant (p > 0)
  bool fused = false;           ///< fusion pass has run
  bool causal = true;
  std::int32_t num_fusions = 0;
  BufferPlanStats buffer;

  std::size_t unified_size() const { return fwd.size() + bwd.size(); }
  /// Node at unified index u (forward then backward).
  const Node& unified(std::size_t u) const {
    return u < fwd.size() ? fwd[u] : bwd[u - fwd.size()];
  }
};

/// Per-stage assembly: one LayerPlan per owned layer plus the stage shape.
/// (Plans of a stage share one topology; they are kept per-layer so dumps
/// carry global layer indices.)
struct StagePlan {
  std::vector<LayerPlan> layers;
  std::int64_t layer_begin = 0;
  std::int64_t layer_end = 0;
  bool has_embedding = false;
  bool has_head = false;
  bool recompute = false;
};

}  // namespace ptdp::graph
