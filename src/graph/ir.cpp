#include "ptdp/graph/ir.hpp"

namespace ptdp::graph {

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kView2D: return "graph.view2d";
    case OpKind::kView3D: return "graph.view3d";
    case OpKind::kLinearFwd: return "graph.linear_fwd";
    case OpKind::kLinearBwd: return "graph.linear_bwd";
    case OpKind::kLayerNorm: return "graph.layernorm";
    case OpKind::kLayerNormBwd: return "graph.layernorm_bwd";
    case OpKind::kAddBias: return "graph.add_bias";
    case OpKind::kGelu: return "graph.gelu";
    case OpKind::kGeluBwd: return "graph.gelu_bwd";
    case OpKind::kDropout: return "graph.dropout";
    case OpKind::kDropoutBwd: return "graph.dropout_bwd";
    case OpKind::kAdd: return "graph.add";
    case OpKind::kBiasGradAccum: return "graph.bias_grad_accum";
    case OpKind::kFusedBiasGelu: return "graph.fused_bias_gelu";
    case OpKind::kFusedBiasGeluBwd: return "graph.fused_bias_gelu_bwd";
    case OpKind::kFusedBiasDropoutAdd: return "graph.fused_bias_dropout_add";
    case OpKind::kAttention: return "graph.attention";
    case OpKind::kAttentionBwd: return "graph.attention_bwd";
  }
  return "graph.unknown";
}

}  // namespace ptdp::graph
