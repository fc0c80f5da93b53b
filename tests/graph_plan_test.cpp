// ptdp::graph planner tests (DESIGN.md §14):
//   1. The builder emits the canonical unfused block and the fusion pass
//      rewrites it to exactly the reference kernel sequence (golden IR
//      checks, pass by pass); the attention core is one kAttention node and
//      one kAttentionBwd node in every plan, no value is [s, s]-shaped or a
//      dropout mask, and the decode plan is the evaluation forward (§16).
//   2. Fusion legality: pinned intermediates block their pattern.
//   3. Buffer planning: values sharing an arena slot have disjoint lifetimes
//      and identical (bytes, dtype); every planned value gets a slot; the
//      saved bytes are exactly what the backward reads, P not among them.
//   4. §13 dtype propagation marks exactly the cached GEMM inputs bf16.
//   5. Plan execution is bitwise-identical to the reference bodies
//      (layer_reference.hpp) — forward, backward, and the recompute plan
//      transformation, with two microbatches in flight — and the attention
//      kernel draws the reference's explicit prob mask on every tensor rank.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "layer_reference.hpp"
#include "ptdp/dist/comm.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/graph/builder.hpp"
#include "ptdp/graph/executor.hpp"
#include "ptdp/graph/passes.hpp"
#include "ptdp/model/transformer_layer.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::graph {
namespace {

using model::GptConfig;
using tensor::Tensor;

GptConfig tiny_config(float dropout = 0.0f) {
  GptConfig c;
  c.num_layers = 2;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = dropout;
  c.seed = 4242;
  return c;
}

std::vector<OpKind> kinds(const std::vector<Node>& seg) {
  std::vector<OpKind> out;
  for (const Node& n : seg) out.push_back(n.kind);
  return out;
}

ValueId find_value(const LayerPlan& plan, const std::string& name) {
  for (std::size_t i = 0; i < plan.values.size(); ++i) {
    if (plan.values[i].name == name) return static_cast<ValueId>(i);
  }
  return kNoValue;
}

// ---- 1. golden IR, pass by pass -------------------------------------------

TEST(GraphBuilder, UnfusedForwardIsTheCanonicalBlock) {
  const LayerPlan plan =
      build_unfused_layer_plan(tiny_config(), /*with_dropout=*/true);
  const std::vector<OpKind> want = {
      OpKind::kView2D,       OpKind::kLayerNorm,      OpKind::kLinearFwd,
      OpKind::kAttention,
      OpKind::kLinearFwd,    OpKind::kAddBias,        OpKind::kDropout,
      OpKind::kAdd,          OpKind::kLayerNorm,      OpKind::kLinearFwd,
      OpKind::kAddBias,      OpKind::kGelu,           OpKind::kLinearFwd,
      OpKind::kAddBias,      OpKind::kDropout,        OpKind::kAdd,
      OpKind::kView3D};
  EXPECT_EQ(kinds(plan.fwd), want);
  EXPECT_FALSE(plan.fused);
  EXPECT_EQ(plan.num_fusions, 0);
}

TEST(GraphBuilder, UnfusedBackwardMirrorsEagerAccumulationOrder) {
  const LayerPlan plan =
      build_unfused_layer_plan(tiny_config(), /*with_dropout=*/true);
  const std::vector<OpKind> want = {
      OpKind::kView2D,        OpKind::kDropoutBwd,   OpKind::kBiasGradAccum,
      OpKind::kLinearBwd,     OpKind::kGeluBwd,      OpKind::kBiasGradAccum,
      OpKind::kLinearBwd,     OpKind::kLayerNormBwd, OpKind::kAdd,
      OpKind::kDropoutBwd,    OpKind::kBiasGradAccum, OpKind::kLinearBwd,
      OpKind::kAttentionBwd,
      OpKind::kLinearBwd,     OpKind::kLayerNormBwd, OpKind::kAdd,
      OpKind::kView3D};
  EXPECT_EQ(kinds(plan.bwd), want);
  // Each dropout backward redraws the mask of its forward's site.
  EXPECT_EQ(plan.bwd[1].site, model::DropSite::kMlpResidual);
  EXPECT_EQ(plan.bwd[9].site, model::DropSite::kAttentionResidual);
  // qkv rows and d context rows in (the kernel redraws the prob mask); d qkv
  // rows out, straight into the QKV linear's backward.
  const Node& core = plan.bwd[12];
  EXPECT_EQ(core.in, (std::vector<ValueId>{find_value(plan, "attn.qkv.out"),
                                           find_value(plan, "d_attn.ctx2d")}));
  EXPECT_EQ(core.out, std::vector<ValueId>{plan.bwd[13].in[0]});
  EXPECT_TRUE(core.causal);
}

TEST(GraphBuilder, DecodePlanReplacesTheAttentionCore) {
  PlannerOptions opts;
  opts.inference = true;
  const LayerPlan plan = build_layer_plan(tiny_config(), false, opts);
  const std::vector<OpKind> want = {
      OpKind::kView2D,          OpKind::kLayerNorm,
      OpKind::kLinearFwd,       OpKind::kAttention,
      OpKind::kLinearFwd,       OpKind::kFusedBiasDropoutAdd,
      OpKind::kLayerNorm,       OpKind::kLinearFwd,
      OpKind::kFusedBiasGelu,   OpKind::kLinearFwd,
      OpKind::kFusedBiasDropoutAdd, OpKind::kView3D};
  EXPECT_EQ(kinds(plan.fwd), want);
  EXPECT_TRUE(plan.bwd.empty());
  // The evaluation forward, node for node.
  EXPECT_EQ(kinds(plan.fwd), kinds(build_layer_plan(tiny_config(), false).fwd));
  // qkv rows in, context rows out — straight into the projection.
  const Node& core = plan.fwd[3];
  EXPECT_EQ(core.in, std::vector<ValueId>{plan.fwd[2].out[0]});
  EXPECT_EQ(core.out, std::vector<ValueId>{plan.fwd[4].in[0]});
}

// The backward recomputes P and the kernels redraw every dropout mask, so no
// plan has an [s, s] score-shaped value or a mask value at all.
TEST(GraphBuilder, NoScoreShapedOrMaskValue) {
  for (const bool drop : {false, true}) {
    for (const bool fuse : {false, true}) {
      for (const bool inference : {false, true}) {
        if (inference && drop) continue;
        PlannerOptions opts;
        opts.fuse = fuse;
        opts.inference = inference;
        const LayerPlan plan = build_layer_plan(tiny_config(0.1f), drop, opts);
        for (const Value& v : plan.values) {
          EXPECT_EQ(v.shape.find("s,s]"), std::string::npos) << v.name;
          EXPECT_EQ(v.name.find(".mask"), std::string::npos) << v.name;
        }
      }
    }
  }
}

TEST(GraphPasses, FusionRewritesToTheEagerKernelSequence) {
  LayerPlan plan = build_unfused_layer_plan(tiny_config(), /*with_dropout=*/true);
  EXPECT_EQ(fuse_operators(plan), 3);  // bias+gelu, 2x bias+dropout+add
  const std::vector<OpKind> want_fwd = {
      OpKind::kView2D,        OpKind::kLayerNorm,
      OpKind::kLinearFwd,     OpKind::kAttention,
      OpKind::kLinearFwd,     OpKind::kFusedBiasDropoutAdd,
      OpKind::kLayerNorm,     OpKind::kLinearFwd,
      OpKind::kFusedBiasGelu, OpKind::kLinearFwd,
      OpKind::kFusedBiasDropoutAdd, OpKind::kView3D};
  EXPECT_EQ(kinds(plan.fwd), want_fwd);
  const std::vector<OpKind> want_bwd = {
      OpKind::kView2D,        OpKind::kDropoutBwd,   OpKind::kBiasGradAccum,
      OpKind::kLinearBwd,     OpKind::kFusedBiasGeluBwd, OpKind::kLinearBwd,
      OpKind::kLayerNormBwd,  OpKind::kAdd,          OpKind::kDropoutBwd,
      OpKind::kBiasGradAccum, OpKind::kLinearBwd,     OpKind::kAttentionBwd,
      OpKind::kLinearBwd,     OpKind::kLayerNormBwd, OpKind::kAdd,
      OpKind::kView3D};
  EXPECT_EQ(kinds(plan.bwd), want_bwd);
}

TEST(GraphPasses, NonCausalUsesMaskSoftmaxAndDropoutFreeTopologyAliases) {
  GptConfig c = tiny_config();
  c.causal = false;
  LayerPlan plan = build_unfused_layer_plan(c, /*with_dropout=*/false);
  fuse_operators(plan);
  // p == 0 topology: no dropout nodes anywhere, and the fused bias+add
  // nodes emit one value.
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    const Node& n = plan.unified(u);
    EXPECT_NE(n.kind, OpKind::kDropout);
    EXPECT_NE(n.kind, OpKind::kDropoutBwd);
    if (n.kind == OpKind::kFusedBiasDropoutAdd) {
      EXPECT_EQ(n.out.size(), 1u);
    }
  }
  // The attention nodes see every key.
  int attention_nodes = 0;
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    const Node& n = plan.unified(u);
    if (n.kind != OpKind::kAttention && n.kind != OpKind::kAttentionBwd) continue;
    ++attention_nodes;
    EXPECT_FALSE(n.causal);
    // no prob mask
    EXPECT_EQ(n.in.size(), n.kind == OpKind::kAttention ? 1u : 2u);
  }
  EXPECT_EQ(attention_nodes, 2);
}

// The §3.5 recompute plan is literally fwd ++ bwd over one value table: the
// unified index order the lifetime pass analyzes is the execution order
// run_recompute uses, so "recompute as plan transformation" needs no third
// node list.
TEST(GraphPasses, RecomputePlanIsUnifiedForwardBackward) {
  LayerPlan plan = build_unfused_layer_plan(tiny_config(), true);
  fuse_operators(plan);
  ASSERT_EQ(plan.unified_size(), plan.fwd.size() + plan.bwd.size());
  EXPECT_EQ(&plan.unified(0), &plan.fwd[0]);
  EXPECT_EQ(&plan.unified(plan.fwd.size()), &plan.bwd[0]);
}

// ---- 2. fusion legality ----------------------------------------------------

TEST(GraphPasses, PinnedIntermediateBlocksItsFusion) {
  LayerPlan plan = build_unfused_layer_plan(tiny_config(), true);
  const ValueId t_act = find_value(plan, "mlp.t_act");
  ASSERT_NE(t_act, kNoValue);
  plan.values[static_cast<std::size_t>(t_act)].pinned = true;  // e.g. debugging
  EXPECT_EQ(fuse_operators(plan), 2);  // bias+gelu pattern must stay unfused
  bool has_unfused_gelu = false;
  for (const Node& n : plan.fwd) has_unfused_gelu |= n.kind == OpKind::kGelu;
  EXPECT_TRUE(has_unfused_gelu);
}

TEST(GraphPasses, MultiUseIntermediateBlocksItsFusion) {
  LayerPlan plan = build_unfused_layer_plan(tiny_config(), true);
  // Give the biased attention output a second consumer: the bias+dropout+add
  // pattern is no longer a straight-line temp chain and must not fuse.
  const ValueId biased = find_value(plan, "resid1.biased");
  ASSERT_NE(biased, kNoValue);
  LayerPlan tampered = plan;
  tampered.bwd.back().in.push_back(biased);  // fake extra use in backward
  const int fused_tampered = fuse_operators(tampered);
  const int fused_clean = fuse_operators(plan);
  EXPECT_EQ(fused_clean, 3);
  EXPECT_EQ(fused_tampered, fused_clean - 1);
}

// ---- 3. buffer planning ----------------------------------------------------

void check_buffer_plan(const LayerPlan& plan) {
  // Every stored, produced value got a slot; aliases and graph inputs none.
  for (const Value& v : plan.values) {
    if (v.ref_bytes > 0 && v.def >= 0) {
      EXPECT_GE(v.slot, 0) << v.name;
    } else {
      EXPECT_EQ(v.slot, -1) << v.name;
    }
  }
  // Slot sharing is legal only across disjoint [def, last_use] lifetimes
  // with identical size-class keys.
  for (std::size_t a = 0; a < plan.values.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.values.size(); ++b) {
      const Value& va = plan.values[a];
      const Value& vb = plan.values[b];
      if (va.slot < 0 || va.slot != vb.slot) continue;
      EXPECT_EQ(va.ref_bytes, vb.ref_bytes) << va.name << " / " << vb.name;
      EXPECT_EQ(va.dtype, vb.dtype) << va.name << " / " << vb.name;
      const std::int32_t ea = va.last_use < 0 ? va.def : va.last_use;
      const std::int32_t eb = vb.last_use < 0 ? vb.def : vb.last_use;
      EXPECT_TRUE(ea < vb.def || eb < va.def)
          << va.name << " [" << va.def << "," << ea << "] overlaps " << vb.name
          << " [" << vb.def << "," << eb << "] in slot " << va.slot;
    }
  }
  // Reuse must actually happen, and the stats must be self-consistent.
  EXPECT_LT(plan.buffer.slot_bytes, plan.buffer.total_value_bytes);
  EXPECT_LE(plan.buffer.peak_bytes, plan.buffer.slot_bytes);
  EXPECT_GT(plan.buffer.num_slots, 0);
  EXPECT_GT(plan.buffer.saved_bytes, 0);
  EXPECT_LT(plan.buffer.saved_bytes, plan.buffer.total_value_bytes);
}

TEST(GraphBufferPlan, LifetimesDisjointPerSlotAllTopologies) {
  for (const bool drop : {false, true}) {
    for (const std::int64_t tp : {1, 2}) {
      PlannerOptions opts;
      opts.tp_size = tp;
      const LayerPlan plan = build_layer_plan(tiny_config(0.1f), drop, opts);
      SCOPED_TRACE("dropout=" + std::to_string(drop) + " tp=" + std::to_string(tp));
      check_buffer_plan(plan);
    }
  }
}

// What the backward reads from the forward, from the shapes at b = 1: the
// LayerNorm statistics, the four cached GEMM inputs, the qkv rows, the
// pre-bias fc1 output and h1, with dropout or without. P and P ⊙ mask
// ([a/t, s, s] each) are not among them: since the backward recomputes P,
// saved_bytes is heads_l·s²·4 bytes below the 6432 (t = 1) and 3840 (t = 2)
// bytes this plan saved with P. No dropout mask is among them either: the
// kernels redraw them, so the dropout column is the prob mask's
// heads_l·s²·4 and the two residual masks' 2·s·h·4 bytes further below the
// 8352/5184 bytes it saved with P and the masks.
TEST(GraphBufferPlan, SavedBytesAreTheShapesWithoutP) {
  constexpr std::int64_t kWithP[2][2] = {{6432, 8352}, {3840, 5184}};
  const GptConfig c = tiny_config(0.1f);
  for (const std::int64_t tp : {1, 2}) {
    for (const bool drop : {false, true}) {
      SCOPED_TRACE("dropout=" + std::to_string(drop) + " tp=" + std::to_string(tp));
      PlannerOptions opts;
      opts.tp_size = tp;
      const LayerPlan plan = build_layer_plan(c, drop, opts);
      const std::int64_t s = c.seq, h = c.hidden, hl = h / tp;
      const std::int64_t ffn = c.ffn_hidden() / tp, heads_l = c.heads / tp;
      const std::int64_t stats = 4 * s;
      const std::int64_t cached = s * h + s * hl + s * h + s * ffn;
      const std::int64_t expected =
          4 * (stats + cached + 3 * s * hl + s * ffn + s * h);
      EXPECT_EQ(plan.buffer.saved_bytes, expected);
      const std::int64_t masks = drop ? heads_l * s * s * 4 + 2 * s * h * 4 : 0;
      EXPECT_EQ(kWithP[tp - 1][drop] - plan.buffer.saved_bytes,
                (drop ? 2 : 1) * heads_l * s * s * 4 + masks);
    }
  }
}

TEST(GraphBufferPlan, SavedBytesShrinkWithBf16CachedInputs) {
  GptConfig c32 = tiny_config();
  GptConfig c16 = tiny_config();
  c16.dtype = tensor::DType::kBf16;
  const LayerPlan p32 = build_layer_plan(c32, false);
  const LayerPlan p16 = build_layer_plan(c16, false);
  EXPECT_LT(p16.buffer.saved_bytes, p32.buffer.saved_bytes);
}

// ---- 4. §13 dtype propagation ---------------------------------------------

TEST(GraphPasses, Bf16MarksExactlyTheCachedGemmInputs) {
  GptConfig c = tiny_config();
  c.dtype = tensor::DType::kBf16;
  const LayerPlan plan = build_layer_plan(c, /*with_dropout=*/true);
  std::vector<ValueId> expected_bf16;
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    const Node& n = plan.unified(u);
    if (n.kind == OpKind::kLinearFwd) expected_bf16.push_back(n.out[1]);
  }
  ASSERT_EQ(expected_bf16.size(), 4u);  // qkv, proj, fc1, fc2
  for (std::size_t i = 0; i < plan.values.size(); ++i) {
    const bool should = std::find(expected_bf16.begin(), expected_bf16.end(),
                                  static_cast<ValueId>(i)) != expected_bf16.end();
    EXPECT_EQ(plan.values[i].dtype == tensor::DType::kBf16, should)
        << plan.values[i].name;
  }
}

// ---- 5. plan == reference, bitwise ----------------------------------------
//
// The reference (layer_reference.hpp) is the hand-written kernel sequence
// over the same binding. Two microbatches are in flight on one layer —
// fwd A, fwd B, bwd B, bwd A — so each frame must carry its own state.

constexpr std::uint64_t kTags[2] = {7, 8};

struct LayerRun {
  Tensor y[2], dx[2];
  std::map<std::string, Tensor> grads;
};

struct LayerInputs {
  Tensor x[2], dy[2];
};

LayerInputs make_inputs(const GptConfig& c) {
  Rng rng(c.seed, substream(9, 9));
  LayerInputs in;
  for (int mb = 0; mb < 2; ++mb) {
    in.x[mb] = Tensor::randn({c.seq, 2, c.hidden}, rng);
    in.dy[mb] = Tensor::randn({c.seq, 2, c.hidden}, rng);
  }
  return in;
}

model::ParamRefs zeroed_params(model::TransformerLayer& layer) {
  model::ParamRefs params;
  layer.collect_params(params);
  for (model::Param* p : params) p->zero_grad();
  return params;
}

void collect_grads(const model::ParamRefs& params, LayerRun& out) {
  for (model::Param* p : params) out.grads.emplace(p->name, p->grad.clone());
}

LayerRun run_plan(model::TransformerLayer& layer, const LayerInputs& in,
                  bool recompute) {
  const model::ParamRefs params = zeroed_params(layer);
  LayerRun out;
  model::LayerCache cache[2];
  for (int mb = 0; mb < 2; ++mb) {
    out.y[mb] = layer.forward(in.x[mb], cache[mb], kTags[mb]);
    if (recompute) cache[mb].keep_input_only();
  }
  for (int mb = 1; mb >= 0; --mb) {
    out.dx[mb] = recompute
                     ? layer.backward_recompute(in.dy[mb], cache[mb], kTags[mb])
                     : layer.backward(in.dy[mb], cache[mb]);
  }
  collect_grads(params, out);
  return out;
}

LayerRun run_reference(model::TransformerLayer& layer, const LayerInputs& in,
                       bool recompute) {
  const model::ParamRefs params = zeroed_params(layer);
  const LayerBinding& bind = layer.binding();
  LayerRun out;
  reference::LayerCache cache[2];
  for (int mb = 0; mb < 2; ++mb) {
    out.y[mb] = reference::layer_forward(bind, in.x[mb], cache[mb], kTags[mb]);
  }
  for (int mb = 1; mb >= 0; --mb) {
    out.dx[mb] = recompute ? reference::layer_backward_recompute(
                                 bind, in.dy[mb], cache[mb], kTags[mb])
                           : reference::layer_backward(bind, in.dy[mb], cache[mb]);
  }
  collect_grads(params, out);
  return out;
}

void expect_bitwise(const LayerRun& a, const LayerRun& b) {
  for (int mb = 0; mb < 2; ++mb) {
    EXPECT_EQ(tensor::max_abs_diff(a.y[mb], b.y[mb]), 0.0f) << "forward " << mb;
    EXPECT_EQ(tensor::max_abs_diff(a.dx[mb], b.dx[mb]), 0.0f) << "dx " << mb;
  }
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (const auto& [name, grad] : a.grads) {
    ASSERT_TRUE(b.grads.contains(name)) << name;
    EXPECT_EQ(tensor::max_abs_diff(grad, b.grads.at(name)), 0.0f) << name;
  }
}

TEST(GraphExecutor, BitwiseMatchesEagerLayer) {
  for (const int t : {1, 2}) {
    for (const float dropout : {0.0f, 0.1f}) {
      for (const auto dtype : {tensor::DType::kF32, tensor::DType::kBf16}) {
        for (const bool recompute : {false, true}) {
          GptConfig c = tiny_config(dropout);
          c.dtype = dtype;
          SCOPED_TRACE("t=" + std::to_string(t) + " dropout=" +
                       std::to_string(dropout) + " dtype=" +
                       tensor::dtype_name(dtype) +
                       (recompute ? " recompute" : " stashed"));
          const LayerInputs in = make_inputs(c);
          dist::World world(t);
          world.run([&](dist::Comm& comm) {
            model::TransformerLayer planned(c, /*global_layer_idx=*/0, comm);
            model::TransformerLayer ref(c, /*global_layer_idx=*/0, comm);
            expect_bitwise(run_plan(planned, in, recompute),
                           run_reference(ref, in, recompute));
          });
        }
      }
    }
  }
}

// The attention kernel, handed the streams the reference keys, draws the
// reference's explicit prob mask (next_bernoulli, element by element), on
// every tensor rank. With q = 0 every score is 0, so a visible P_ij is
// exactly 1/(i + 1); one-hot value rows (window w0: v_j = e_{j − w0} in
// every head) read P ⊙ mask lane by lane.
TEST(GraphExecutor, AttentionKernelDrawsTheReferenceProbMask) {
  const GptConfig c = tiny_config(0.3f);
  const std::int64_t s = c.seq, b = 2;
  for (const int t : {1, 2}) {
    dist::World world(t);
    world.run([&](dist::Comm& comm) {
      SCOPED_TRACE(testing::Message() << "t " << t << " rank " << comm.rank());
      model::TransformerLayer layer(c, /*global_layer_idx=*/1, comm);
      const LayerBinding& bind = layer.binding();
      const std::int64_t al = bind.attn->heads_local(), dk = bind.attn->head_dim();
      const std::int64_t hl = al * dk;
      const std::vector<Rng> streams = reference::prob_dropout_streams(bind, b, kTags[0]);
      const Tensor mask = reference::prob_dropout_mask(bind, b, kTags[0]);
      const std::vector<float> zero(static_cast<std::size_t>(hl), 0.0f);
      std::vector<float> eye(static_cast<std::size_t>((dk + 1) * hl), 0.0f);
      for (std::int64_t d = 0; d < dk; ++d) {
        for (std::int64_t h = 0; h < al; ++h) {
          eye[static_cast<std::size_t>(d * hl + h * dk + d)] = 1.0f;
        }
      }
      const std::vector<const float*> k(static_cast<std::size_t>(s), zero.data());
      std::vector<const float*> v(k.size());
      std::vector<float> ctx(static_cast<std::size_t>(b * s * hl));
      for (std::int64_t w0 = 0; w0 < s; w0 += dk) {
        for (std::int64_t j = 0; j < s; ++j) {
          v[static_cast<std::size_t>(j)] =
              eye.data() + (j >= w0 && j < w0 + dk ? j - w0 : dk) * hl;
        }
        std::vector<tensor::AttentionSeq> seqs;
        for (std::int64_t bi = 0; bi < b; ++bi) {
          seqs.push_back({zero.data(), 0, s, 0, k, v, dk, ctx.data() + bi * s * hl, hl,
                          std::span<const Rng>(streams).subspan(bi * al, al),
                          c.dropout});
        }
        tensor::attention(seqs, {al, dk, dk, 1.0f, /*causal=*/true});
        for (std::int64_t bi = 0; bi < b; ++bi) {
          for (std::int64_t h = 0; h < al; ++h) {
            for (std::int64_t i = 0; i < s; ++i) {
              for (std::int64_t j = w0; j < std::min(s, w0 + dk); ++j) {
                const float m = mask.data()[static_cast<std::size_t>(
                    ((bi * al + h) * s + i) * s + j)];
                const float want =
                    j <= i ? 1.0f / static_cast<float>(i + 1) * m : 0.0f;
                ASSERT_EQ(ctx[static_cast<std::size_t>((bi * s + i) * hl + h * dk +
                                                       j - w0)],
                          want)
                    << "sequence " << bi << " head " << h << " query " << i
                    << " key " << j;
              }
            }
          }
        }
      }
    });
  }
}

TEST(GraphExecutor, RecomputePlanBitwiseMatchesEagerReplay) {
  for (const float dropout : {0.0f, 0.3f}) {
    GptConfig c = tiny_config(dropout);
    SCOPED_TRACE("dropout=" + std::to_string(dropout));
    const LayerInputs in = make_inputs(c);
    dist::Comm solo = dist::Comm::solo();
    model::TransformerLayer layer(c, 0, solo);
    const LayerRun plan_rc = run_plan(layer, in, /*recompute=*/true);
    expect_bitwise(plan_rc, run_reference(layer, in, /*recompute=*/true));
    // And recompute must change nothing vs stashed-activation backward.
    expect_bitwise(plan_rc, run_plan(layer, in, /*recompute=*/false));
  }
}

TEST(GraphExecutor, EvalDropoutZeroReusesTrainingTopology) {
  // set_dropout(0) must not invalidate the plan the forward ran with: the
  // probability is an ExecContext input, the topology is fixed at build.
  GptConfig c = tiny_config(0.2f);
  dist::Comm solo = dist::Comm::solo();
  model::TransformerLayer layer(c, 0, solo);
  layer.set_dropout(0.0f);
  Rng rng(c.seed, substream(3, 3));
  const Tensor x = Tensor::randn({c.seq, 2, c.hidden}, rng);
  model::LayerCache cache;
  const Tensor y_plan = layer.forward(x, cache, 1);
  reference::LayerCache ref_cache;
  const Tensor y_ref = reference::layer_forward(layer.binding(), x, ref_cache, 1);
  EXPECT_EQ(tensor::max_abs_diff(y_plan, y_ref), 0.0f);
}

// ---- plan dump -------------------------------------------------------------

TEST(GraphDump, EmitsPlanV1Json) {
  const LayerPlan plan = build_layer_plan(tiny_config(0.1f), true);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  dump_plan_json(plan, /*layer_idx=*/3, f);
  std::rewind(f);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("\"num_fusions\": 3"), std::string::npos);
  EXPECT_NE(text.find("graph.fused_bias_dropout_add"), std::string::npos);
  EXPECT_NE(text.find("\"buffer\""), std::string::npos);
  // The pre-GeLU sum is fused away entirely -> dead, omitted from the dump.
  EXPECT_EQ(text.find("\"name\": \"mlp.t_act\""), std::string::npos);
}

TEST(GraphBuilder, StagePlanCoversLayerRange) {
  const StagePlan sp = build_stage_plan(tiny_config(), 2, 4, false, true, true);
  EXPECT_EQ(sp.layers.size(), 2u);
  EXPECT_EQ(sp.layer_begin, 2);
  EXPECT_TRUE(sp.has_head);
  EXPECT_FALSE(sp.has_embedding);
  EXPECT_TRUE(sp.recompute);
}

}  // namespace
}  // namespace ptdp::graph
