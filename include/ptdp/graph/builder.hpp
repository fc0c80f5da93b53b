#pragma once

// Builds LayerPlans from GptConfig (DESIGN.md §14). The builder emits the
// canonical *unfused* per-block sequence — add_bias / dropout / add as
// separate nodes, the attention core fused from the start (kAttention
// forward, kAttentionBwd backward) — and build_layer_plan then runs the
// planner passes: fusion (unless PlannerOptions turns it off), dtype
// propagation and buffer planning. With `inference` the result is the decode
// plan (§16): the evaluation forward with no backward.

#include "ptdp/graph/ir.hpp"
#include "ptdp/model/config.hpp"

namespace ptdp::graph {

struct PlannerOptions {
  bool fuse = true;               ///< run the §4.2 operator-fusion pass
  std::int64_t tp_size = 1;       ///< tensor-parallel degree (sizes sharded
                                  ///< tensors for the buffer plan; topology
                                  ///< is t-independent)
  bool inference = false;         ///< decode plan: drop the backward graph
                                  ///< after fusion (dropout-free)
};

/// The raw unfused plan for one block (no passes run). `with_dropout`
/// selects the topology (dropout nodes present or absent); the dropout
/// *probability* stays a runtime input so set_dropout(0) for eval does not
/// invalidate a plan.
LayerPlan build_unfused_layer_plan(const model::GptConfig& config,
                                   bool with_dropout, std::int64_t tp_size = 1);

/// Unfused builder + planner passes per `opts`.
LayerPlan build_layer_plan(const model::GptConfig& config, bool with_dropout,
                           const PlannerOptions& opts = {});

/// Plans for every layer a stage owns (layer indices [layer_begin,
/// layer_end)), with stage metadata for dumps. Pure function of the config —
/// no model instance required.
StagePlan build_stage_plan(const model::GptConfig& config,
                           std::int64_t layer_begin, std::int64_t layer_end,
                           bool has_embedding, bool has_head, bool recompute,
                           const PlannerOptions& opts = {});

}  // namespace ptdp::graph
