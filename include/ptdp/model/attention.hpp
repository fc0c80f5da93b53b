#pragma once

// Tensor-parallel multi-head self-attention (Fig. 5b): the parameters and
// shard geometry the planned layer body (ptdp::graph, DESIGN.md §14) drives.
//
// The QKV projection is column-parallel with whole heads per rank (requires
// heads % t == 0); the output projection is row-parallel with its bias
// skipped so the transformer block can apply the fused
// bias+dropout+residual kernel. Data layout follows §4.2: activations flow
// as [s, b, h] (sequence-major) to avoid transposes in the hot path.

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/config.hpp"
#include "ptdp/model/linear.hpp"

namespace ptdp::model {

class ParallelAttention {
 public:
  ParallelAttention(const GptConfig& config, std::int64_t global_layer_idx,
                    dist::Comm tp);

  Param& proj_bias() { return proj_.bias(); }
  void collect_params(ParamRefs& out);

  // Graph-plan bindings (DESIGN.md §14).
  ColumnParallelLinear& qkv() { return qkv_; }
  RowParallelLinear& proj() { return proj_; }
  std::int64_t heads_local() const { return heads_local_; }
  std::int64_t head_dim() const { return head_dim_; }
  std::int64_t hidden_local() const { return hidden_local_; }
  /// Global index of this rank's first head: the attention-probability
  /// dropout streams are keyed by global head, so tensor-parallel ranks
  /// draw what the serial model draws (rng_sites.hpp).
  std::int64_t head_begin() const { return head_begin_; }

 private:
  std::int64_t heads_local_, head_dim_, hidden_local_, head_begin_;
  ColumnParallelLinear qkv_;
  RowParallelLinear proj_;
};

}  // namespace ptdp::model
