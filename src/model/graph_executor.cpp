#include "ptdp/graph/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ptdp/model/attention.hpp"
#include "ptdp/model/config.hpp"
#include "ptdp/model/linear.hpp"
#include "ptdp/model/param.hpp"
#include "ptdp/model/rng_sites.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/check.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::graph {

using tensor::Tensor;

namespace {

model::Param& param(const LayerBinding& bind, std::int8_t slot) {
  PTDP_CHECK(slot >= 0 && slot < kNumParamSlots);
  return *bind.params[static_cast<std::size_t>(slot)];
}

/// Unfused-plan helper: applies the implicit causal mask as an explicit
/// -inf fill so the plain softmax kernel can follow. The fused
/// scale+causal+softmax kernel replaces this pair after the fusion pass; a
/// zero padding mask (the BERT configuration) is a pure copy.
Tensor mask_fill(const Tensor& x, bool causal) {
  Tensor out = Tensor::empty({x.dim(0), x.dim(1), x.dim(2)});
  auto src = x.data();
  auto dst = out.data();
  std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
  if (!causal) return out;
  const std::int64_t sq = x.dim(1), sk = x.dim(2);
  const float ninf = -std::numeric_limits<float>::infinity();
  for (std::int64_t r = 0; r < x.dim(0); ++r) {
    float* slab = dst.data() + r * sq * sk;
    for (std::int64_t i = 0; i < sq; ++i) {
      for (std::int64_t j = i + (sk - sq) + 1; j < sk; ++j) {
        slab[i * sk + j] = ninf;
      }
    }
  }
  return out;
}

/// KV-cached attention core of a decode plan (DESIGN.md §16). qkv2d is
/// [rows, 3·h_l], the new rows of ctx.seqs concatenated in order (rows ==
/// Σ seq.len). Each sequence's new K/V rows are appended to ctx.kv, and its
/// new queries attend over the whole cached prefix through the full-path
/// kernel sequence (bmm_nt -> scale+causal softmax -> bmm) on
/// [a_l, len, kv_len], with K and V read where the store keeps them —
/// bitwise the full forward's rows at those positions. Returns the merged
/// context [rows, h_l].
Tensor decode_attention(const Tensor& qkv2d, const LayerBinding& bind,
                        const ExecContext& ctx) {
  PTDP_CHECK(bind.config->causal) << "incremental decode is causal-only";
  PTDP_CHECK_EQ(ctx.dropout, 0.0f) << "disable dropout for decoding";
  PTDP_CHECK(ctx.kv != nullptr) << "decode plan run without a KV store";
  const std::int64_t rows = qkv2d.dim(0);
  const std::int64_t al = bind.attn->heads_local();
  const std::int64_t dk = bind.attn->head_dim();
  const std::int64_t hl = bind.attn->hidden_local();

  Tensor ctx2d = Tensor::empty({rows, hl});
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));

  model::KvRows kv_rows;  // reused across sequences: the tables keep capacity
  std::int64_t r0 = 0;
  for (const model::DecodeSeq& seq : ctx.seqs) {
    const std::int64_t c = seq.len;
    const std::int64_t kv_len = seq.pos + c;
    PTDP_CHECK_GT(c, 0);

    // Per-row qkv layout is [a_l, 3dk] (q | k | v per head): the store
    // takes the new rows' head-major K/V, the GEMMs an [a_l, c, dk] query.
    const Tensor heads = qkv2d.slice(0, r0, c).view({c, al, 3 * dk});
    ctx.kv->write(seq.id, bind.layer_idx, seq.pos,
                  heads.slice(-1, dk, dk).view({c, hl}),
                  heads.slice(-1, 2 * dk, dk).view({c, hl}));
    const Tensor q3d = heads.slice(-1, 0, dk).permute({1, 0, 2});

    // The exact full-path kernel sequence on [a_l, c, kv_len], the GEMMs
    // packing K and V straight from the store's rows — bitwise the full
    // forward's last c rows.
    ctx.kv->rows(seq.id, bind.layer_idx, kv_len, al, dk, kv_rows);
    Tensor scores = tensor::bmm_nt(  // [a_l, c, kv_len]
        q3d, tensor::HeadRows{kv_rows.k, kv_rows.head_stride, dk});
    Tensor probs = tensor::fused_scale_causal_softmax(scores, scale);
    Tensor cx = tensor::bmm(  // [a_l, c, dk]
        probs, tensor::HeadRows{kv_rows.v, kv_rows.head_stride, dk});
    std::copy_n(cx.permute({1, 0, 2}).data().data(), c * hl,
                ctx2d.data().data() + r0 * hl);
    r0 += c;
  }
  PTDP_CHECK_EQ(r0, rows) << "decode batch rows must equal the sum of seq lens";
  return ctx2d;
}

struct Runner {
  const LayerPlan& plan;
  Frame& frame;
  const LayerBinding& bind;
  const ExecContext& ctx;

  Tensor& at(ValueId vid) { return frame.vals[static_cast<std::size_t>(vid)]; }

  Rng rng_for(const Node& node) const {
    return model::site_rng(bind.config->seed, ctx.mb_tag,
                           static_cast<std::uint64_t>(bind.layer_idx),
                           node.site);
  }

  void exec(const Node& n) {
    namespace ts = ptdp::tensor;
    switch (n.kind) {
      case OpKind::kView2D: {
        const Tensor& x = at(n.in[0]);
        at(n.out[0]) = x.view({x.dim(0) * x.dim(1), x.dim(2)});
        break;
      }
      case OpKind::kView3D: {
        const Tensor& x = at(n.in[0]);
        at(n.out[0]) = x.view({ctx.s, ctx.b, x.dim(1)});
        break;
      }
      case OpKind::kLayerNorm: {
        auto r = ts::layernorm(at(n.in[0]), param(bind, n.param).value,
                               param(bind, n.param2).value);
        at(n.out[0]) = r.y;
        at(n.out[1]) = r.mean;
        at(n.out[2]) = r.rstd;
        break;
      }
      case OpKind::kLayerNormBwd: {
        model::Param& gamma = param(bind, n.param);
        model::Param& beta = param(bind, n.param2);
        auto g = ts::layernorm_backward(at(n.in[0]), at(n.in[1]), gamma.value,
                                        at(n.in[2]), at(n.in[3]));
        ts::add_(gamma.grad, g.dgamma);
        ts::add_(beta.grad, g.dbeta);
        at(n.out[0]) = g.dx;
        break;
      }
      case OpKind::kLinearFwd: {
        // The linear module routes to the quantized GEMM itself once
        // quantize_for_serving has packed its weight (DESIGN.md §17).
        model::LinearCache c;
        switch (static_cast<LinearSlot>(n.linear)) {
          case LinearSlot::kQkv: at(n.out[0]) = bind.qkv->forward(at(n.in[0]), c); break;
          case LinearSlot::kProj: at(n.out[0]) = bind.proj->forward(at(n.in[0]), c); break;
          case LinearSlot::kFc1: at(n.out[0]) = bind.fc1->forward(at(n.in[0]), c); break;
          case LinearSlot::kFc2: at(n.out[0]) = bind.fc2->forward(at(n.in[0]), c); break;
        }
        at(n.out[1]) = c.input;
        break;
      }
      case OpKind::kLinearBwd: {
        model::LinearCache c{at(n.in[1])};
        switch (static_cast<LinearSlot>(n.linear)) {
          case LinearSlot::kQkv: at(n.out[0]) = bind.qkv->backward(at(n.in[0]), c); break;
          case LinearSlot::kProj: at(n.out[0]) = bind.proj->backward(at(n.in[0]), c); break;
          case LinearSlot::kFc1: at(n.out[0]) = bind.fc1->backward(at(n.in[0]), c); break;
          case LinearSlot::kFc2: at(n.out[0]) = bind.fc2->backward(at(n.in[0]), c); break;
        }
        break;
      }
      case OpKind::kAttnSplitHeads: {
        const std::int64_t al = bind.attn->heads_local();
        const std::int64_t dk = bind.attn->head_dim();
        Tensor qkv4d = at(n.in[0])
                           .view({ctx.s, ctx.b, al, 3 * dk})
                           .permute({1, 2, 0, 3})
                           .view({ctx.b * al, ctx.s, 3 * dk});
        at(n.out[0]) = qkv4d.slice(-1, 0, dk);
        at(n.out[1]) = qkv4d.slice(-1, dk, dk);
        at(n.out[2]) = qkv4d.slice(-1, 2 * dk, dk);
        break;
      }
      case OpKind::kAttnMergeHeads: {
        const std::int64_t al = bind.attn->heads_local();
        const std::int64_t dk = bind.attn->head_dim();
        at(n.out[0]) = at(n.in[0])
                           .view({ctx.b, al, ctx.s, dk})
                           .permute({2, 0, 1, 3})
                           .view({ctx.s * ctx.b, al * dk});
        break;
      }
      case OpKind::kAttnSplitGradHeads: {
        const std::int64_t al = bind.attn->heads_local();
        const std::int64_t dk = bind.attn->head_dim();
        at(n.out[0]) = at(n.in[0])
                           .view({ctx.s, ctx.b, al, dk})
                           .permute({1, 2, 0, 3})
                           .view({ctx.b * al, ctx.s, dk});
        break;
      }
      case OpKind::kAttnMergeQkvGrad: {
        const std::int64_t al = bind.attn->heads_local();
        const std::int64_t dk = bind.attn->head_dim();
        at(n.out[0]) = ts::concat({at(n.in[0]), at(n.in[1]), at(n.in[2])}, -1)
                           .view({ctx.b, al, ctx.s, 3 * dk})
                           .permute({2, 0, 1, 3})
                           .view({ctx.s * ctx.b, 3 * al * dk});
        break;
      }
      case OpKind::kAttnProbMask:
        at(n.out[0]) = bind.attn->make_prob_dropout_mask(ctx.b, ctx.mb_tag);
        break;
      case OpKind::kAddBias:
        at(n.out[0]) = ts::add_bias(at(n.in[0]), param(bind, n.param).value);
        break;
      case OpKind::kGelu:
        at(n.out[0]) = ts::gelu(at(n.in[0]));
        break;
      case OpKind::kGeluBwd:
        at(n.out[0]) = ts::gelu_backward(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kDropout: {
        Rng rng = rng_for(n);
        at(n.out[0]) = ts::dropout(at(n.in[0]), ctx.dropout, rng, at(n.out[1]));
        break;
      }
      case OpKind::kDropoutBwd:
        at(n.out[0]) = ts::dropout_backward(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kAdd:
        at(n.out[0]) = ts::add(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kMul:
        at(n.out[0]) = ts::mul(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kScale:
        at(n.out[0]) = ts::scale(at(n.in[0]), n.scale);
        break;
      case OpKind::kMaskFill:
        at(n.out[0]) = mask_fill(at(n.in[0]), n.causal);
        break;
      case OpKind::kSoftmax:
        at(n.out[0]) = ts::softmax_lastdim(at(n.in[0]));
        break;
      case OpKind::kSoftmaxBwd:
        at(n.out[0]) = ts::softmax_backward(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kBmm:
        at(n.out[0]) = ts::bmm(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kBmmNT:
        at(n.out[0]) = ts::bmm_nt(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kBmmTN:
        at(n.out[0]) = ts::bmm_tn(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kBiasGradAccum:
        ts::add_(param(bind, n.param).grad, ts::bias_grad(at(n.in[0])));
        break;
      case OpKind::kFusedBiasGelu:
        at(n.out[0]) =
            ts::fused_bias_gelu(at(n.in[0]), param(bind, n.param).value);
        break;
      case OpKind::kFusedBiasGeluBwd: {
        model::Param& b = param(bind, n.param);
        at(n.out[0]) =
            ts::fused_bias_gelu_backward(at(n.in[0]), at(n.in[1]), b.value, b.grad);
        break;
      }
      case OpKind::kFusedBiasDropoutAdd: {
        Rng rng = rng_for(n);
        Tensor* mask = n.out.size() > 1 ? &at(n.out[1]) : nullptr;
        at(n.out[0]) = ts::fused_bias_dropout_add(
            at(n.in[0]), param(bind, n.param).value, at(n.in[1]), ctx.dropout,
            rng, mask);
        break;
      }
      case OpKind::kScaleCausalSoftmax:
        at(n.out[0]) = ts::fused_scale_causal_softmax(at(n.in[0]), n.scale);
        break;
      case OpKind::kScaleMaskSoftmax:
        at(n.out[0]) = ts::fused_scale_mask_softmax(
            at(n.in[0]), Tensor({ctx.s, ctx.s}), n.scale);
        break;
      case OpKind::kDecodeAttention:
        at(n.out[0]) = decode_attention(at(n.in[0]), bind, ctx);
        break;
      case OpKind::kScaleSoftmaxBwd:
        at(n.out[0]) = ts::fused_scale_softmax_backward(at(n.in[0]), at(n.in[1]),
                                                        n.scale);
        break;
    }
  }

  /// Executes unified nodes [from, to), releasing each slot at its planned
  /// last use (the buffer plan's arena reuse, realized through the mem pool).
  void run_range(std::size_t from, std::size_t to) {
    for (std::size_t u = from; u < to; ++u) {
      const Node& n = plan.unified(u);
      {
        obs::Span span(op_name(n.kind), obs::Cat::kCompute,
                       {{"layer", bind.layer_idx}});
        exec(n);
      }
      const auto iu = static_cast<std::int32_t>(u);
      auto release_dead = [&](ValueId vid) {
        if (vid == plan.input || vid == plan.output || vid == plan.grad_in ||
            vid == plan.grad_out) {
          return;
        }
        // A value no node reads (e.g. a decode plan's LayerNorm statistics)
        // dies where it is defined.
        const Value& v = plan.values[static_cast<std::size_t>(vid)];
        if (v.last_use == iu || v.last_use < 0) at(vid) = Tensor();
      };
      for (ValueId vid : n.in) release_dead(vid);
      for (ValueId vid : n.out) release_dead(vid);
    }
    if (obs::metrics_on()) {
      obs::MetricsRegistry::instance()
          .counter("graph.ops_executed")
          .add(static_cast<std::int64_t>(to - from));
    }
  }
};

}  // namespace

Tensor SequentialExecutor::run_forward(const LayerPlan& plan, Frame& frame,
                                       const LayerBinding& bind,
                                       const ExecContext& ctx) {
  PTDP_CHECK(frame.vals.size() == plan.values.size());
  Runner r{plan, frame, bind, ctx};
  r.run_range(0, plan.fwd.size());
  return frame.vals[static_cast<std::size_t>(plan.output)];
}

Tensor SequentialExecutor::run_backward(const LayerPlan& plan, Frame& frame,
                                        const LayerBinding& bind,
                                        const ExecContext& ctx,
                                        const Tensor& dy) {
  PTDP_CHECK(frame.vals.size() == plan.values.size());
  frame.vals[static_cast<std::size_t>(plan.grad_in)] = dy;
  Runner r{plan, frame, bind, ctx};
  r.run_range(plan.fwd.size(), plan.unified_size());
  Tensor dx = frame.vals[static_cast<std::size_t>(plan.grad_out)];
  frame.clear();  // the microbatch is done on this layer
  return dx;
}

Tensor SequentialExecutor::run_recompute(const LayerPlan& plan, Frame& frame,
                                         const LayerBinding& bind,
                                         const ExecContext& ctx,
                                         const Tensor& dy) {
  PTDP_CHECK(frame.vals.size() == plan.values.size());
  PTDP_CHECK(frame.vals[static_cast<std::size_t>(plan.input)].defined());
  frame.vals[static_cast<std::size_t>(plan.grad_in)] = dy;
  Runner r{plan, frame, bind, ctx};
  r.run_range(0, plan.unified_size());
  Tensor dx = frame.vals[static_cast<std::size_t>(plan.grad_out)];
  frame.clear();
  return dx;
}

}  // namespace ptdp::graph
