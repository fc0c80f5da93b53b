#pragma once

// One pre-LayerNorm GPT transformer block:
//   h1 = x + dropout(attn(LN1(x)) + proj_bias)
//   y  = h1 + dropout(mlp(LN2(h1)) + fc2_bias)
// with the bias+dropout+add fusions of §4.2.
//
// Execution is planned: the block builds its ptdp::graph LayerPlans once
// (fusion + dtype + buffer passes, DESIGN.md §14) and every call — training
// forward/backward, recompute, evaluation and KV-cached decode — runs one
// of them through the SequentialExecutor. The plans are the block's only
// body. Forward and backward are functional over an explicit LayerCache (a
// graph::Frame) so a pipeline stage can hold many microbatches in flight,
// and so activation recomputation can rebuild state from the stashed input.

#include "ptdp/dist/comm.hpp"
#include "ptdp/graph/executor.hpp"
#include "ptdp/model/attention.hpp"
#include "ptdp/model/mlp.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

/// Per-(layer, microbatch) state: the planned frame. keep_input_only()
/// drops everything but the layer input (activation recomputation, §3.5).
using LayerCache = graph::Frame;

class TransformerLayer {
 public:
  TransformerLayer(const GptConfig& config, std::int64_t global_layer_idx,
                   const dist::Comm& tp);

  /// x: [s, b, h] replicated across tensor ranks; returns [s, b, h].
  tensor::Tensor forward(const tensor::Tensor& x, LayerCache& cache,
                         std::uint64_t mb_tag);

  /// dy: [s, b, h]; returns dx and accumulates all parameter grads. The
  /// cache's frame slots are released at their planned last use.
  tensor::Tensor backward(const tensor::Tensor& dy, LayerCache& cache);

  /// Backward with activation recomputation (§3.5): the cache holds only the
  /// layer input, and the fwd ++ bwd recompute plan runs over it. `mb_tag`
  /// must match the original forward so the counter-based dropout streams
  /// replay bitwise.
  tensor::Tensor backward_recompute(const tensor::Tensor& dy, LayerCache& cache,
                                    std::uint64_t mb_tag);

  std::int64_t layer_idx() const { return layer_idx_; }
  void collect_params(ParamRefs& out);
  /// Eval-mode switch: 0 disables this layer's dropouts (incl. attention).
  /// Plans are topology-selected by dropout > 0, so this just flips which
  /// prebuilt plan runs.
  void set_dropout(float p);

  /// The planned graphs this layer executes (with- and without-dropout
  /// topologies) and the module binding they run against.
  const graph::LayerPlan& plan(bool with_dropout) const {
    return with_dropout ? plan_drop_ : plan_nodrop_;
  }
  const graph::LayerBinding& binding() const { return binding_; }

  /// The inference plan KV-cached decode runs (GptStage::decode): the
  /// evaluation forward with no backward (§16).
  const graph::LayerPlan& decode_plan() const { return plan_decode_; }

 private:
  GptConfig config_;
  std::int64_t layer_idx_;
  Param ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  ParallelAttention attention_;
  ParallelMlp mlp_;
  graph::LayerPlan plan_nodrop_, plan_drop_, plan_decode_;
  graph::LayerBinding binding_;  ///< self-referential: layer is pinned by
                                 ///< unique_ptr ownership (no copies/moves)
};

}  // namespace ptdp::model
