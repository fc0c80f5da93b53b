#pragma once

// Planner rewrite/analysis passes over a LayerPlan (DESIGN.md §14).
// Run order: fuse_operators -> propagate_dtypes -> analyze_lifetimes ->
// plan_buffers (build_layer_plan wires this up). Each pass is independently
// callable so tests can golden-check the IR between passes.

#include <cstdio>

#include "ptdp/graph/ir.hpp"
#include "ptdp/model/config.hpp"

namespace ptdp::graph {

/// §4.2 operator fusion. Jointly rewrites forward and backward graphs:
///   add_bias + [dropout] + add     -> fused_bias_dropout_add
///   add_bias + gelu                -> fused_bias_gelu      (+ backward pair
///   gelu_bwd + bias_grad_accum     -> fused_bias_gelu_bwd)
/// The attention core needs no pass: the canonical plan runs it fused
/// (kAttention forward, kAttentionBwd backward).
/// A pattern is legal only when its intermediate values are single-use,
/// not pinned, and not live into the other graph (except values the fused
/// kernel itself re-materializes, e.g. the pre-GeLU sum). Returns the number
/// of fusions applied and sets plan.fused/num_fusions.
int fuse_operators(LayerPlan& plan);

/// Annotates every value with its §13 dtype: activations are f32 (all
/// non-GEMM kernels are f32-compute), and the only bf16 values are the
/// cached GEMM inputs of kLinearFwd when the weight dtype is bf16 (the
/// linear layer narrows its stashed input to the weight dtype). Also fixes
/// ref_bytes to the dtype-aware size.
void propagate_dtypes(LayerPlan& plan, const model::GptConfig& config);

/// Fills Value::def/last_use/saved over the unified fwd++bwd node order.
void analyze_lifetimes(LayerPlan& plan);

/// Lifetime-interval buffer planning: greedily assigns each non-pinned value
/// an arena slot such that values sharing a slot have disjoint [def,
/// last_use] intervals and identical (ref_bytes, dtype); fills Value::slot
/// and plan.buffer. The executor realizes the plan by releasing each frame
/// tensor at its planned last use, returning its block to the ptdp::mem
/// pool's size-class free list — the pool *is* the arena backing store.
/// Requires analyze_lifetimes.
void plan_buffers(LayerPlan& plan);

/// ptdp-plan-v1 JSON dump (values with lifetimes/slots/dtypes, node lists,
/// buffer stats) for one plan or a whole stage.
void dump_plan_json(const LayerPlan& plan, std::int64_t layer_idx, std::FILE* out);
void dump_stage_plan_json(const StagePlan& plan, const model::GptConfig& config,
                          std::FILE* out);

}  // namespace ptdp::graph
