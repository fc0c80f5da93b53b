#include "ptdp/graph/executor.hpp"

#include <vector>

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

struct Runner {
  const LayerPlan& plan;
  Frame& frame;
  const LayerBinding& bind;
  const ExecContext& ctx;

  Tensor& at(ValueId vid) { return frame.vals[static_cast<std::size_t>(vid)]; }

  /// The dropout probability; only a plan built with dropout applies one
  /// (its backward has the nodes that redraw the masks).
  float dropout() const {
    PTDP_CHECK(plan.with_dropout || ctx.dropout == 0.0f)
        << "dropout " << ctx.dropout << " on a dropout-free plan";
    return ctx.dropout;
  }

  Rng site_rng(model::DropSite site, std::uint64_t sub = 0) const {
    return model::site_rng(bind.config->seed, ctx.mb_tag,
                           static_cast<std::uint64_t>(bind.layer_idx), site, sub);
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
      case OpKind::kAddBias:
        at(n.out[0]) = ts::add_bias(at(n.in[0]), param(bind, n.param).value);
        break;
      case OpKind::kGelu:
        at(n.out[0]) = ts::gelu(at(n.in[0]));
        break;
      case OpKind::kGeluBwd:
        at(n.out[0]) = ts::gelu_backward(at(n.in[0]), at(n.in[1]));
        break;
      case OpKind::kDropout:
        at(n.out[0]) = ts::dropout(at(n.in[0]), dropout(), site_rng(n.site));
        break;
      case OpKind::kDropoutBwd:
        at(n.out[0]) =
            ts::dropout_backward(at(n.in[0]), dropout(), site_rng(n.site));
        break;
      case OpKind::kAdd:
        at(n.out[0]) = ts::add(at(n.in[0]), at(n.in[1]));
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
      case OpKind::kFusedBiasDropoutAdd:
        at(n.out[0]) = ts::fused_bias_dropout_add(
            at(n.in[0]), param(bind, n.param).value, at(n.in[1]), dropout(),
            site_rng(n.site));
        break;
      case OpKind::kAttention:
        attention(n);
        break;
      case OpKind::kAttentionBwd:
        attention_backward(n);
        break;
    }
  }

  /// The b sequences of the [s, b] microbatch over its qkv rows [s·b, 3·h_l]
  /// (per row [a_l][q|k|v][dk]): row i·b + bi is position i of sequence bi,
  /// which is entry bi·s + i of the row tables `k` and `v` (and of
  /// position(r) for row r). `out`, if not null, is the context rows
  /// [s·b, h_l]. With dropout, `drop` receives the attention-probability
  /// streams, entry bi·a_l + h for local head h of sequence bi, keyed by
  /// bi·heads + global head (rng_sites.hpp).
  std::vector<tensor::AttentionSeq> microbatch_seqs(
      const Tensor& qkv, float* out, std::vector<const float*>& k,
      std::vector<const float*>& v, std::vector<Rng>& drop) const {
    const std::int64_t al = bind.attn->heads_local();
    const std::int64_t dk = bind.attn->head_dim();
    const std::int64_t s = ctx.s, b = ctx.b, hl = al * dk, row = 3 * hl;
    PTDP_CHECK_EQ(s * b, qkv.dim(0));
    const float* q = qkv.data().data();
    k.resize(static_cast<std::size_t>(s * b));
    v.resize(k.size());
    for (std::int64_t r = 0; r < s * b; ++r) {
      k[position(r)] = q + r * row + dk;
      v[position(r)] = q + r * row + 2 * dk;
    }
    if (dropout() > 0.0f) {
      const std::int64_t heads = bind.config->heads, h0 = bind.attn->head_begin();
      for (std::int64_t bi = 0; bi < b; ++bi) {
        for (std::int64_t h = 0; h < al; ++h) {
          drop.push_back(site_rng(model::DropSite::kAttentionProb,
                                  static_cast<std::uint64_t>(bi * heads + h0 + h)));
        }
      }
    }
    std::vector<tensor::AttentionSeq> seqs;
    for (std::int64_t bi = 0; bi < b; ++bi) {
      seqs.push_back({q + bi * row, b * row, s, 0, std::span(k).subspan(bi * s, s),
                      std::span(v).subspan(bi * s, s), 3 * dk,
                      out != nullptr ? out + bi * hl : nullptr, b * hl});
      if (!drop.empty()) {
        seqs.back().drop = std::span<const Rng>(drop).subspan(bi * al, al);
        seqs.back().drop_p = ctx.dropout;
      }
    }
    return seqs;
  }
  std::size_t position(std::int64_t r) const {
    return static_cast<std::size_t>(r % ctx.b * ctx.s + r / ctx.b);
  }

  /// kAttention (DESIGN.md §14, §16): qkv rows [rows, 3·h_l], per row
  /// [a_l][q|k|v][dk], in; context rows [rows, h_l] out, through
  /// tensor::attention. Training and evaluation attend within each sequence
  /// of the [s, b] microbatch, K/V read in the qkv rows themselves; nothing
  /// but the context is written (the backward recomputes P and redraws the
  /// dropout mask). With ctx.kv set, each sequence of ctx.seqs first appends
  /// its new K/V rows to the store and then attends over the store's rows:
  /// the same bytes through the same kernel, so decode is bitwise the full
  /// forward.
  void attention(const Node& n) {
    const Tensor& qkv = at(n.in[0]);
    const std::int64_t al = bind.attn->heads_local();
    const std::int64_t dk = bind.attn->head_dim();
    const std::int64_t hl = al * dk;
    const std::int64_t rows = qkv.dim(0);
    const float* q = qkv.data().data();
    Tensor out = Tensor::empty({rows, hl});
    float* o = out.data().data();
    std::vector<tensor::AttentionSeq> seqs;
    thread_local std::vector<model::KvRows> kv_rows;  // tables keep capacity
    std::vector<const float*> k, v;
    std::vector<Rng> drop;
    if (ctx.kv != nullptr) {
      PTDP_CHECK(n.causal) << "incremental decode is causal-only";
      PTDP_CHECK_EQ(ctx.dropout, 0.0f) << "disable dropout for decoding";
      kv_rows.resize(ctx.seqs.size());
      std::int64_t r0 = 0;
      for (std::size_t i = 0; i < ctx.seqs.size(); ++i) {
        const model::DecodeSeq& seq = ctx.seqs[i];
        PTDP_CHECK_GT(seq.len, 0);
        const Tensor heads =
            qkv.slice(0, r0, seq.len).view({seq.len, al, 3 * dk});
        ctx.kv->write(seq.id, bind.layer_idx, seq.pos,
                      heads.slice(-1, dk, dk).view({seq.len, hl}),
                      heads.slice(-1, 2 * dk, dk).view({seq.len, hl}));
        model::KvRows& kr = kv_rows[i];
        ctx.kv->rows(seq.id, bind.layer_idx, seq.pos + seq.len, al, dk, kr);
        seqs.push_back({q + r0 * 3 * hl, 3 * hl, seq.len, seq.pos, kr.k, kr.v,
                        kr.head_stride, o + r0 * hl, hl});
        r0 += seq.len;
      }
      PTDP_CHECK_EQ(r0, rows) << "decode batch rows must equal the sum of seq lens";
    } else {
      seqs = microbatch_seqs(qkv, o, k, v, drop);
    }
    tensor::attention(seqs, {al, dk, 3 * dk, n.scale, n.causal});
    for (model::KvRows& kr : kv_rows) kr.scratch_k = kr.scratch_v = Tensor();
    at(n.out[0]) = out;
  }

  /// kAttentionBwd (DESIGN.md §8, §14): qkv rows and d context rows
  /// [rows, h_l] in; d qkv rows [rows, 3·h_l] out, laid out like the qkv
  /// rows, which is what the QKV linear's backward takes. The dropout mask is
  /// redrawn from the forward's streams.
  void attention_backward(const Node& n) {
    const Tensor& qkv = at(n.in[0]);
    const std::int64_t al = bind.attn->heads_local();
    const std::int64_t dk = bind.attn->head_dim();
    const std::int64_t s = ctx.s, b = ctx.b, hl = al * dk;
    std::vector<const float*> k, v;
    std::vector<Rng> drop;
    const std::vector<tensor::AttentionSeq> seqs =
        microbatch_seqs(qkv, nullptr, k, v, drop);
    Tensor dqkv = Tensor::empty(qkv.shape());
    float* d = dqkv.data().data();
    std::vector<float*> dk_rows(k.size()), dv_rows(k.size());
    for (std::int64_t r = 0; r < s * b; ++r) {
      dk_rows[position(r)] = d + r * 3 * hl + dk;
      dv_rows[position(r)] = d + r * 3 * hl + 2 * dk;
    }
    const float* dctx = at(n.in[1]).data().data();
    std::vector<tensor::AttentionGradSeq> grads;
    for (std::int64_t bi = 0; bi < b; ++bi) {
      grads.push_back({seqs[static_cast<std::size_t>(bi)], dctx + bi * hl, b * hl,
                       d + bi * 3 * hl, b * 3 * hl,
                       std::span(dk_rows).subspan(bi * s, s),
                       std::span(dv_rows).subspan(bi * s, s)});
    }
    tensor::attention_backward(grads, {al, dk, 3 * dk, n.scale, n.causal});
    at(n.out[0]) = dqkv;
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
