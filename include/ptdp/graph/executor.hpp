#pragma once

// SequentialExecutor: runs a planned LayerPlan over a Frame (DESIGN.md §14).
//
// The Frame is a layer's per-microbatch execution state: one tensor slot per
// plan value (model::LayerCache is a Frame), so a pipeline stage can keep
// many microbatches in flight. The executor realizes the buffer plan by
// dropping each slot at its planned last use — the freed block returns to
// the ptdp::mem pool's size-class free list, which is exactly the arena the
// slot assignment predicted. Activation recomputation is the plan
// transformation fwd ++ bwd run over a frame that holds only the layer input
// (Frame::keep_input_only). Decode runs an inference plan whose
// kAttention node reads the batch layout and KV store from the ExecContext.
//
// Every node executes under a per-op obs::Span (static name from op_name),
// so Perfetto timelines show the planned schedule op by op.

#include <cstdint>
#include <span>
#include <vector>

#include "ptdp/graph/ir.hpp"
#include "ptdp/model/kv_cache.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::model {
class ColumnParallelLinear;
class RowParallelLinear;
class ParallelAttention;
struct Param;
struct GptConfig;
}  // namespace ptdp::model

namespace ptdp::graph {

/// Execution state for one (layer, microbatch): one tensor per plan value.
struct Frame {
  std::vector<tensor::Tensor> vals;
  ValueId input = kNoValue;
  bool with_dropout = false;  ///< topology the forward ran with
  std::uint64_t mb_tag = 0;   ///< the forward's RNG key: the backward redraws

  bool active() const { return !vals.empty(); }
  void begin(const LayerPlan& plan, const tensor::Tensor& x, std::uint64_t tag) {
    vals.assign(plan.values.size(), tensor::Tensor());
    input = plan.input;
    with_dropout = plan.with_dropout;
    mb_tag = tag;
    vals[static_cast<std::size_t>(input)] = x;
  }
  /// §3.5 drop: release every slot except the layer input; the recompute
  /// plan rebuilds the rest.
  void keep_input_only() {
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (static_cast<ValueId>(i) != input) vals[i] = tensor::Tensor();
    }
  }
  void clear() { vals.clear(); }
};

/// Non-owning handles to the modules/params a plan's nodes drive. Built once
/// by TransformerLayer; node attrs (LinearSlot/ParamSlot) index into it.
struct LayerBinding {
  const model::GptConfig* config = nullptr;
  std::int64_t layer_idx = 0;
  model::Param* params[kNumParamSlots] = {};
  model::ColumnParallelLinear* qkv = nullptr;
  model::RowParallelLinear* proj = nullptr;
  model::ColumnParallelLinear* fc1 = nullptr;
  model::RowParallelLinear* fc2 = nullptr;
  model::ParallelAttention* attn = nullptr;
};

/// Per-run dynamic inputs: the microbatch geometry, the RNG key, and the
/// current dropout probability (an eval-mode runtime input — plan topology
/// only depends on whether training dropout exists at all). Decode plans
/// run with s = Σ seq.len rows, b = 1, and also read the sequences of the
/// batch (in row order) and the KV store their kAttention node writes and
/// attends over.
struct ExecContext {
  std::int64_t s = 0, b = 0;
  std::uint64_t mb_tag = 0;
  float dropout = 0.0f;
  std::span<const model::DecodeSeq> seqs = {};
  model::KvStore* kv = nullptr;
};

class SequentialExecutor {
 public:
  /// Executes plan.fwd over a begin()-initialized frame; returns y [s,b,h].
  static tensor::Tensor run_forward(const LayerPlan& plan, Frame& frame,
                                    const LayerBinding& bind,
                                    const ExecContext& ctx);
  /// Executes plan.bwd over a frame still holding the saved forward values;
  /// accumulates parameter grads and returns dx [s,b,h].
  static tensor::Tensor run_backward(const LayerPlan& plan, Frame& frame,
                                     const LayerBinding& bind,
                                     const ExecContext& ctx,
                                     const tensor::Tensor& dy);
  /// Recompute transformation: executes fwd ++ bwd over a frame holding only
  /// the layer input. RNG sites replay bitwise (counter-based streams).
  static tensor::Tensor run_recompute(const LayerPlan& plan, Frame& frame,
                                      const LayerBinding& bind,
                                      const ExecContext& ctx,
                                      const tensor::Tensor& dy);
};

}  // namespace ptdp::graph
