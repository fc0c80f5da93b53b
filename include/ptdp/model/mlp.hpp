#pragma once

// Tensor-parallel two-layer MLP (Fig. 5a): column-parallel h -> 4h with
// fused bias+GeLU, then row-parallel 4h -> h with bias skipped for the
// block-level fused bias+dropout+add. Holds the parameters; the planned
// layer body (ptdp::graph, DESIGN.md §14) drives them.

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/config.hpp"
#include "ptdp/model/linear.hpp"

namespace ptdp::model {

class ParallelMlp {
 public:
  ParallelMlp(const GptConfig& config, std::int64_t global_layer_idx, dist::Comm tp);

  Param& fc2_bias() { return fc2_.bias(); }
  void collect_params(ParamRefs& out);

  // Graph-plan bindings (DESIGN.md §14).
  ColumnParallelLinear& fc1() { return fc1_; }
  RowParallelLinear& fc2() { return fc2_; }

 private:
  ColumnParallelLinear fc1_;
  RowParallelLinear fc2_;
};

}  // namespace ptdp::model
