#include "ptdp/graph/builder.hpp"

#include <cmath>
#include <initializer_list>

#include "ptdp/graph/passes.hpp"
#include "ptdp/runtime/check.hpp"

namespace ptdp::graph {

namespace {

// Emits values/nodes into a LayerPlan under construction. All reference
// byte sizes are at microbatch b = 1 (see Value::ref_bytes).
class Emitter {
 public:
  Emitter(LayerPlan& plan, const model::GptConfig& config, std::int64_t tp)
      : plan_(plan), cfg_(config), tp_(tp) {}

  ValueId val(std::string name, std::string shape, std::int64_t ref_elems) {
    Value v;
    v.name = std::move(name);
    v.shape = std::move(shape);
    v.ref_bytes = ref_elems * 4;  // f32 until the dtype pass says otherwise
    plan_.values.push_back(std::move(v));
    return static_cast<ValueId>(plan_.values.size() - 1);
  }

  /// Zero-copy alias of another value (metadata view): plans no storage.
  ValueId alias(std::string name, std::string shape) {
    return val(std::move(name), std::move(shape) + " (view)", 0);
  }

  Node& node(std::vector<Node>& seg, OpKind kind,
             std::initializer_list<ValueId> in,
             std::initializer_list<ValueId> out) {
    Node n;
    n.kind = kind;
    n.in = in;
    n.out = out;
    seg.push_back(std::move(n));
    return seg.back();
  }

  std::int64_t s() const { return cfg_.seq; }
  std::int64_t h() const { return cfg_.hidden; }
  std::int64_t hl() const { return cfg_.hidden / tp_; }
  std::int64_t ffn_l() const { return cfg_.ffn_hidden() / tp_; }

 private:
  LayerPlan& plan_;
  const model::GptConfig& cfg_;
  std::int64_t tp_;
};

}  // namespace

LayerPlan build_unfused_layer_plan(const model::GptConfig& config,
                                   bool with_dropout, std::int64_t tp_size) {
  PTDP_CHECK(tp_size >= 1 && config.heads % tp_size == 0);
  LayerPlan plan;
  plan.with_dropout = with_dropout;
  plan.causal = config.causal;
  Emitter e(plan, config, tp_size);
  const std::int64_t s = e.s(), h = e.h(), hl = e.hl(), ffn = e.ffn_l();
  const float smax_scale =
      1.0f / std::sqrt(static_cast<float>(config.head_dim()));
  const auto P = [](ParamSlot p) { return static_cast<std::int8_t>(p); };
  const auto L = [](LinearSlot l) { return static_cast<std::int8_t>(l); };

  // ---- values ----------------------------------------------------------------
  const ValueId x = e.val("x", "[s,b,h]", s * h);
  const ValueId x2d = e.alias("x2d", "[s*b,h]");
  const ValueId ln1_y = e.val("ln1.y", "[s*b,h]", s * h);
  const ValueId ln1_mean = e.val("ln1.mean", "[s*b]", s);
  const ValueId ln1_rstd = e.val("ln1.rstd", "[s*b]", s);
  const ValueId qkv_cin = e.val("attn.qkv.cached_input", "[s*b,h]", s * h);
  const ValueId qkv_out = e.val("attn.qkv.out", "[s*b,3h/t]", s * 3 * hl);
  const ValueId ctx2d = e.val("attn.ctx2d", "[s*b,h/t]", s * hl);
  const ValueId proj_cin = e.val("attn.proj.cached_input", "[s*b,h/t]", s * hl);
  const ValueId attn_out = e.val("attn.out", "[s*b,h]", s * h);
  const ValueId t1 = e.val("resid1.biased", "[s*b,h]", s * h);
  const ValueId d1 =
      with_dropout ? e.val("resid1.dropped", "[s*b,h]", s * h) : t1;
  const ValueId h1 = e.val("h1", "[s*b,h]", s * h);
  const ValueId ln2_y = e.val("ln2.y", "[s*b,h]", s * h);
  const ValueId ln2_mean = e.val("ln2.mean", "[s*b]", s);
  const ValueId ln2_rstd = e.val("ln2.rstd", "[s*b]", s);
  const ValueId fc1_cin = e.val("mlp.fc1.cached_input", "[s*b,h]", s * h);
  const ValueId fc1_out = e.val("mlp.fc1.out", "[s*b,4h/t]", s * ffn);
  const ValueId t_act = e.val("mlp.t_act", "[s*b,4h/t]", s * ffn);
  const ValueId act = e.val("mlp.act", "[s*b,4h/t]", s * ffn);
  const ValueId fc2_cin = e.val("mlp.fc2.cached_input", "[s*b,4h/t]", s * ffn);
  const ValueId fc2_out = e.val("mlp.fc2.out", "[s*b,h]", s * h);
  const ValueId t2 = e.val("resid2.biased", "[s*b,h]", s * h);
  const ValueId d2 =
      with_dropout ? e.val("resid2.dropped", "[s*b,h]", s * h) : t2;
  const ValueId y2d = e.val("y2d", "[s*b,h]", s * h);
  const ValueId y = e.alias("y", "[s,b,h]");

  const ValueId dy = e.val("dy", "[s,b,h]", s * h);
  const ValueId dy2d = e.alias("dy2d", "[s*b,h]");
  const ValueId db2 =
      with_dropout ? e.val("d_resid2.biased", "[s*b,h]", s * h) : dy2d;
  const ValueId dact = e.val("d_mlp.act", "[s*b,4h/t]", s * ffn);
  const ValueId dt_act = e.val("d_mlp.t_act", "[s*b,4h/t]", s * ffn);
  const ValueId dln2y = e.val("d_ln2.y", "[s*b,h]", s * h);
  const ValueId dln2x = e.val("d_ln2.x", "[s*b,h]", s * h);
  const ValueId dh1 = e.val("d_h1", "[s*b,h]", s * h);
  const ValueId db1 =
      with_dropout ? e.val("d_resid1.biased", "[s*b,h]", s * h) : dh1;
  const ValueId dctx2d = e.val("d_attn.ctx2d", "[s*b,h/t]", s * hl);
  const ValueId dqkv = e.val("d_attn.qkv", "[s*b,3h/t]", s * 3 * hl);
  const ValueId dln1y = e.val("d_ln1.y", "[s*b,h]", s * h);
  const ValueId dln1x = e.val("d_ln1.x", "[s*b,h]", s * h);
  const ValueId dx2d = e.val("dx2d", "[s*b,h]", s * h);
  const ValueId dx = e.alias("dx", "[s,b,h]");

  plan.input = x;
  plan.output = y;
  plan.grad_in = dy;
  plan.grad_out = dx;

  // ---- forward: the canonical unfused block ----------------------------------
  auto& F = plan.fwd;
  e.node(F, OpKind::kView2D, {x}, {x2d});
  {
    Node& n = e.node(F, OpKind::kLayerNorm, {x2d}, {ln1_y, ln1_mean, ln1_rstd});
    n.param = P(ParamSlot::kLn1Gamma);
    n.param2 = P(ParamSlot::kLn1Beta);
  }
  e.node(F, OpKind::kLinearFwd, {ln1_y}, {qkv_out, qkv_cin}).linear =
      L(LinearSlot::kQkv);
  {
    // qkv rows in, context rows out; the backward recomputes P and redraws
    // the dropout mask.
    Node& n = e.node(F, OpKind::kAttention, {qkv_out}, {ctx2d});
    n.scale = smax_scale;
    n.causal = config.causal;
  }
  e.node(F, OpKind::kLinearFwd, {ctx2d}, {attn_out, proj_cin}).linear =
      L(LinearSlot::kProj);
  {
    // The residual-site tag rides on the head of the pattern so the fusion
    // pass can key the fused kernel's RNG stream in the p == 0 topology too.
    Node& n = e.node(F, OpKind::kAddBias, {attn_out}, {t1});
    n.param = P(ParamSlot::kProjBias);
    n.site = model::DropSite::kAttentionResidual;
  }
  if (with_dropout) {
    e.node(F, OpKind::kDropout, {t1}, {d1}).site =
        model::DropSite::kAttentionResidual;
  }
  e.node(F, OpKind::kAdd, {d1, x2d}, {h1});
  {
    Node& n = e.node(F, OpKind::kLayerNorm, {h1}, {ln2_y, ln2_mean, ln2_rstd});
    n.param = P(ParamSlot::kLn2Gamma);
    n.param2 = P(ParamSlot::kLn2Beta);
  }
  e.node(F, OpKind::kLinearFwd, {ln2_y}, {fc1_out, fc1_cin}).linear =
      L(LinearSlot::kFc1);
  e.node(F, OpKind::kAddBias, {fc1_out}, {t_act}).param = P(ParamSlot::kFc1Bias);
  e.node(F, OpKind::kGelu, {t_act}, {act});
  e.node(F, OpKind::kLinearFwd, {act}, {fc2_out, fc2_cin}).linear =
      L(LinearSlot::kFc2);
  {
    Node& n = e.node(F, OpKind::kAddBias, {fc2_out}, {t2});
    n.param = P(ParamSlot::kFc2Bias);
    n.site = model::DropSite::kMlpResidual;
  }
  if (with_dropout) {
    e.node(F, OpKind::kDropout, {t2}, {d2}).site =
        model::DropSite::kMlpResidual;
  }
  e.node(F, OpKind::kAdd, {d2, h1}, {y2d});
  e.node(F, OpKind::kView3D, {y2d}, {y});

  // ---- backward (mirrors the reference accumulation order exactly) ----------
  auto& B = plan.bwd;
  e.node(B, OpKind::kView2D, {dy}, {dy2d});
  if (with_dropout) {
    e.node(B, OpKind::kDropoutBwd, {dy2d}, {db2}).site = model::DropSite::kMlpResidual;
  }
  e.node(B, OpKind::kBiasGradAccum, {db2}, {}).param = P(ParamSlot::kFc2Bias);
  e.node(B, OpKind::kLinearBwd, {db2, fc2_cin}, {dact}).linear =
      L(LinearSlot::kFc2);
  e.node(B, OpKind::kGeluBwd, {dact, t_act}, {dt_act});
  e.node(B, OpKind::kBiasGradAccum, {dt_act}, {}).param = P(ParamSlot::kFc1Bias);
  e.node(B, OpKind::kLinearBwd, {dt_act, fc1_cin}, {dln2y}).linear =
      L(LinearSlot::kFc1);
  {
    Node& n = e.node(B, OpKind::kLayerNormBwd,
                     {dln2y, h1, ln2_mean, ln2_rstd}, {dln2x});
    n.param = P(ParamSlot::kLn2Gamma);
    n.param2 = P(ParamSlot::kLn2Beta);
  }
  e.node(B, OpKind::kAdd, {dy2d, dln2x}, {dh1});
  if (with_dropout) {
    e.node(B, OpKind::kDropoutBwd, {dh1}, {db1}).site =
        model::DropSite::kAttentionResidual;
  }
  e.node(B, OpKind::kBiasGradAccum, {db1}, {}).param = P(ParamSlot::kProjBias);
  e.node(B, OpKind::kLinearBwd, {db1, proj_cin}, {dctx2d}).linear =
      L(LinearSlot::kProj);
  {
    // d context rows in, d qkv rows out, straight into the QKV linear.
    Node& n = e.node(B, OpKind::kAttentionBwd, {qkv_out, dctx2d}, {dqkv});
    n.scale = smax_scale;
    n.causal = config.causal;
  }
  e.node(B, OpKind::kLinearBwd, {dqkv, qkv_cin}, {dln1y}).linear =
      L(LinearSlot::kQkv);
  {
    Node& n = e.node(B, OpKind::kLayerNormBwd,
                     {dln1y, x2d, ln1_mean, ln1_rstd}, {dln1x});
    n.param = P(ParamSlot::kLn1Gamma);
    n.param2 = P(ParamSlot::kLn1Beta);
  }
  e.node(B, OpKind::kAdd, {dh1, dln1x}, {dx2d});
  e.node(B, OpKind::kView3D, {dx2d}, {dx});
  return plan;
}

LayerPlan build_layer_plan(const model::GptConfig& config, bool with_dropout,
                           const PlannerOptions& opts) {
  PTDP_CHECK(!(opts.inference && with_dropout))
      << "inference plans are dropout-free";
  LayerPlan plan = build_unfused_layer_plan(config, with_dropout, opts.tp_size);
  if (opts.fuse) fuse_operators(plan);
  // Decode never runs backward: its plan is the evaluation forward.
  if (opts.inference) plan.bwd.clear();
  propagate_dtypes(plan, config);
  analyze_lifetimes(plan);
  plan_buffers(plan);
  return plan;
}

StagePlan build_stage_plan(const model::GptConfig& config,
                           std::int64_t layer_begin, std::int64_t layer_end,
                           bool has_embedding, bool has_head, bool recompute,
                           const PlannerOptions& opts) {
  StagePlan sp;
  sp.layer_begin = layer_begin;
  sp.layer_end = layer_end;
  sp.has_embedding = has_embedding;
  sp.has_head = has_head;
  sp.recompute = recompute;
  for (std::int64_t l = layer_begin; l < layer_end; ++l) {
    sp.layers.push_back(build_layer_plan(config, config.dropout > 0.0f, opts));
  }
  return sp;
}

}  // namespace ptdp::graph
