#include "layer_reference.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "ptdp/model/param.hpp"
#include "ptdp/model/rng_sites.hpp"

namespace ptdp::reference {

using graph::LayerBinding;
using graph::ParamSlot;
using tensor::Tensor;

namespace {
model::Param& param(const LayerBinding& bind, ParamSlot slot) {
  return *bind.params[static_cast<int>(slot)];
}

// The b sequences of the microbatch over the QKV rows: row i·b + bi is
// position i of sequence bi, per row [a_l][q|k|v][dk]. `k`/`v` receive the
// row tables the sequences point into.
std::vector<tensor::AttentionSeq> sequences(const LayerBinding& bind,
                                            const AttentionCache& cache,
                                            std::vector<const float*>& k,
                                            std::vector<const float*>& v) {
  const std::int64_t heads_local = bind.attn->heads_local();
  const std::int64_t head_dim = bind.attn->head_dim();
  const std::int64_t row_stride = 3 * bind.attn->hidden_local();
  const std::int64_t s = cache.s, b = cache.b;
  const float* rows = cache.qkv_rows.data().data();
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t i = 0; i < s; ++i) {
      k.push_back(rows + (i * b + bi) * row_stride + head_dim);
      v.push_back(rows + (i * b + bi) * row_stride + 2 * head_dim);
    }
  }
  std::vector<tensor::AttentionSeq> seqs;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    seqs.push_back({rows + bi * row_stride, b * row_stride, s, 0,
                    std::span<const float* const>(k).subspan(bi * s, s),
                    std::span<const float* const>(v).subspan(bi * s, s),
                    3 * head_dim});
    if (!cache.prob_streams.empty()) {
      seqs.back().drop = std::span<const Rng>(cache.prob_streams)
                             .subspan(bi * heads_local, heads_local);
      seqs.back().drop_p = bind.config->dropout;
    }
  }
  return seqs;
}

tensor::AttentionShape shape(const LayerBinding& bind,
                             const model::GptConfig& config) {
  const std::int64_t head_dim = bind.attn->head_dim();
  return {bind.attn->heads_local(), head_dim, 3 * head_dim,
          1.0f / std::sqrt(static_cast<float>(head_dim)), config.causal};
}
}  // namespace

std::vector<Rng> prob_dropout_streams(const LayerBinding& bind, std::int64_t b,
                                      std::uint64_t mb_tag) {
  const model::GptConfig& config = *bind.config;
  const std::int64_t heads_local = bind.attn->heads_local();
  std::vector<Rng> streams;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t lh = 0; lh < heads_local; ++lh) {
      const std::int64_t gh = bind.attn->head_begin() + lh;
      streams.push_back(model::site_rng(
          config.seed, mb_tag, static_cast<std::uint64_t>(bind.layer_idx),
          model::DropSite::kAttentionProb,
          static_cast<std::uint64_t>(bi * config.heads + gh)));
    }
  }
  return streams;
}

Tensor prob_dropout_mask(const LayerBinding& bind, std::int64_t b,
                         std::uint64_t mb_tag) {
  const std::int64_t s = bind.config->seq;
  const float p = bind.config->dropout;
  const float keep_scale = 1.0f / (1.0f - p);
  const std::vector<Rng> streams = prob_dropout_streams(bind, b, mb_tag);
  Tensor mask = Tensor::empty({static_cast<std::int64_t>(streams.size()), s, s});
  float* slab = mask.data().data();
  for (Rng rng : streams) {
    for (std::int64_t i = 0; i < s * s; ++i) {
      *slab++ = rng.next_bernoulli(p) ? 0.0f : keep_scale;
    }
  }
  return mask;
}

Tensor dropout_mask(const LayerBinding& bind, model::DropSite site, std::int64_t rows,
                    std::uint64_t mb_tag) {
  const model::GptConfig& config = *bind.config;
  Rng rng = model::site_rng(config.seed, mb_tag,
                            static_cast<std::uint64_t>(bind.layer_idx), site);
  const float keep_scale = 1.0f / (1.0f - config.dropout);
  Tensor mask = Tensor::empty({rows, config.hidden});
  for (float& m : mask.data()) m = rng.next_bernoulli(config.dropout) ? 0.0f : keep_scale;
  return mask;
}

LayerBinding bind_attention(model::ParallelAttention& attn,
                            const model::GptConfig& config,
                            std::int64_t layer_idx) {
  LayerBinding bind;
  bind.config = &config;
  bind.layer_idx = layer_idx;
  bind.params[static_cast<int>(ParamSlot::kProjBias)] = &attn.proj_bias();
  bind.qkv = &attn.qkv();
  bind.proj = &attn.proj();
  bind.attn = &attn;
  return bind;
}

LayerBinding bind_mlp(model::ParallelMlp& mlp, const model::GptConfig& config,
                      std::int64_t layer_idx) {
  LayerBinding bind;
  bind.config = &config;
  bind.layer_idx = layer_idx;
  bind.params[static_cast<int>(ParamSlot::kFc1Bias)] = &mlp.fc1().bias();
  bind.params[static_cast<int>(ParamSlot::kFc2Bias)] = &mlp.fc2_bias();
  bind.fc1 = &mlp.fc1();
  bind.fc2 = &mlp.fc2();
  return bind;
}

// ---- attention -------------------------------------------------------------

Tensor attention_forward(const LayerBinding& bind, const Tensor& x,
                         AttentionCache& cache, std::uint64_t mb_tag) {
  const model::GptConfig& config = *bind.config;
  const std::int64_t hidden_local = bind.attn->hidden_local();
  PTDP_CHECK_EQ(x.ndim(), 3) << "attention input must be [s, b, h]";
  const std::int64_t s = x.dim(0);
  const std::int64_t b = x.dim(1);
  PTDP_CHECK_EQ(x.dim(2), config.hidden);
  cache.s = s;
  cache.b = b;

  Tensor x2d = x.view({s * b, config.hidden});
  cache.qkv_rows = bind.qkv->forward(x2d, cache.qkv);  // [sb, 3*hidden_local]
  cache.prob_streams.clear();
  if (config.dropout > 0.0f) cache.prob_streams = prob_dropout_streams(bind, b, mb_tag);
  Tensor ctx2d = Tensor::empty({s * b, hidden_local});
  std::vector<const float*> k, v;
  std::vector<tensor::AttentionSeq> seqs = sequences(bind, cache, k, v);
  for (std::int64_t bi = 0; bi < b; ++bi) {
    seqs[static_cast<std::size_t>(bi)].out = ctx2d.data().data() + bi * hidden_local;
    seqs[static_cast<std::size_t>(bi)].out_stride = b * hidden_local;
  }
  tensor::attention(seqs, shape(bind, config));
  Tensor out2d = bind.proj->forward(ctx2d, cache.proj);  // [sb, h], bias skipped
  return out2d.view({s, b, config.hidden});
}

Tensor attention_backward(const LayerBinding& bind, const Tensor& dy,
                          const AttentionCache& cache) {
  const model::GptConfig& config = *bind.config;
  const std::int64_t head_dim = bind.attn->head_dim();
  const std::int64_t hidden_local = bind.attn->hidden_local();
  const std::int64_t row_stride = 3 * hidden_local;
  const std::int64_t s = cache.s;
  const std::int64_t b = cache.b;
  Tensor dy2d = dy.view({s * b, config.hidden});

  Tensor dctx2d = bind.proj->backward(dy2d, cache.proj);  // [sb, hidden_local]
  // dQ/dK/dV land in rows laid out like the QKV rows.
  Tensor dqkv = Tensor::empty({s * b, row_stride});
  float* d = dqkv.data().data();
  std::vector<float*> dk, dv;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t i = 0; i < s; ++i) {
      dk.push_back(d + (i * b + bi) * row_stride + head_dim);
      dv.push_back(d + (i * b + bi) * row_stride + 2 * head_dim);
    }
  }
  std::vector<const float*> k, v;
  const std::vector<tensor::AttentionSeq> seqs = sequences(bind, cache, k, v);
  std::vector<tensor::AttentionGradSeq> grads;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    grads.push_back({seqs[static_cast<std::size_t>(bi)],
                     dctx2d.data().data() + bi * hidden_local, b * hidden_local,
                     d + bi * row_stride, b * row_stride,
                     std::span<float* const>(dk).subspan(bi * s, s),
                     std::span<float* const>(dv).subspan(bi * s, s)});
  }
  tensor::attention_backward(grads, shape(bind, config));
  Tensor dx2d = bind.qkv->backward(dqkv, cache.qkv);  // all-reduced over t
  return dx2d.view({s, b, config.hidden});
}

// ---- MLP -------------------------------------------------------------------

Tensor mlp_forward(const LayerBinding& bind, const Tensor& x, MlpCache& cache) {
  const std::int64_t hidden = bind.config->hidden;
  const std::int64_t s = x.dim(0);
  const std::int64_t b = x.dim(1);
  Tensor x2d = x.view({s * b, hidden});
  cache.fc1_out = bind.fc1->forward(x2d, cache.fc1);  // [sb, 4h/t], no bias yet
  Tensor act = tensor::fused_bias_gelu(cache.fc1_out, bind.fc1->bias().value);
  Tensor y2d = bind.fc2->forward(act, cache.fc2);  // [sb, h], all-reduced, no bias
  return y2d.view({s, b, hidden});
}

Tensor mlp_backward(const LayerBinding& bind, const Tensor& dy,
                    const MlpCache& cache) {
  const std::int64_t hidden = bind.config->hidden;
  const std::int64_t s = dy.dim(0);
  const std::int64_t b = dy.dim(1);
  Tensor dy2d = dy.view({s * b, hidden});
  Tensor dact = bind.fc2->backward(dy2d, cache.fc2);  // [sb, 4h/t]
  Tensor dfc1_out = tensor::fused_bias_gelu_backward(
      dact, cache.fc1_out, bind.fc1->bias().value, bind.fc1->bias().grad);
  Tensor dx2d = bind.fc1->backward(dfc1_out, cache.fc1);  // all-reduced over t
  return dx2d.view({s, b, hidden});
}

// ---- block -----------------------------------------------------------------

Tensor layer_forward(const LayerBinding& bind, const Tensor& x, LayerCache& cache,
                     std::uint64_t mb_tag) {
  const model::GptConfig& config = *bind.config;
  const std::int64_t s = x.dim(0);
  const std::int64_t b = x.dim(1);
  const std::int64_t h = config.hidden;
  cache.input = x;

  Tensor x2d = x.view({s * b, h});
  cache.ln1 = tensor::layernorm(x2d, param(bind, ParamSlot::kLn1Gamma).value,
                                param(bind, ParamSlot::kLn1Beta).value);
  Tensor attn_out =
      attention_forward(bind, cache.ln1.y.view({s, b, h}), cache.attn, mb_tag);

  // Bias, dropout through an explicit mask, then the residual (the block
  // input), unfused. The mask is keyed by (mb, layer, site) so
  // tensor-parallel ranks agree and recomputation replays it.
  cache.attn_resid_mask =
      dropout_mask(bind, model::DropSite::kAttentionResidual, s * b, mb_tag);
  cache.h1 = tensor::mul(tensor::add_bias(attn_out.view({s * b, h}),
                                          bind.proj->bias().value),
                         cache.attn_resid_mask);
  tensor::add_(cache.h1, x2d);

  cache.ln2 = tensor::layernorm(cache.h1, param(bind, ParamSlot::kLn2Gamma).value,
                                param(bind, ParamSlot::kLn2Beta).value);
  Tensor mlp_out = mlp_forward(bind, cache.ln2.y.view({s, b, h}), cache.mlp);

  cache.mlp_resid_mask = dropout_mask(bind, model::DropSite::kMlpResidual, s * b, mb_tag);
  Tensor y2d = tensor::mul(
      tensor::add_bias(mlp_out.view({s * b, h}), bind.fc2->bias().value),
      cache.mlp_resid_mask);
  tensor::add_(y2d, cache.h1);
  return y2d.view({s, b, h});
}

Tensor layer_backward(const LayerBinding& bind, const Tensor& dy,
                      const LayerCache& cache) {
  const std::int64_t s = dy.dim(0);
  const std::int64_t b = dy.dim(1);
  const std::int64_t h = bind.config->hidden;
  model::Param& ln1_gamma = param(bind, ParamSlot::kLn1Gamma);
  model::Param& ln1_beta = param(bind, ParamSlot::kLn1Beta);
  model::Param& ln2_gamma = param(bind, ParamSlot::kLn2Gamma);
  model::Param& ln2_beta = param(bind, ParamSlot::kLn2Beta);
  Tensor dy2d = dy.view({s * b, h});

  // ---- second residual: y = dropout(mlp_out + fc2_bias) + h1 ----
  Tensor d_after2 = tensor::mul(dy2d, cache.mlp_resid_mask);
  tensor::add_(bind.fc2->bias().grad, tensor::bias_grad(d_after2));
  Tensor d_ln2y =
      mlp_backward(bind, d_after2.view({s, b, h}), cache.mlp).view({s * b, h});

  auto ln2_grads = tensor::layernorm_backward(d_ln2y, cache.h1, ln2_gamma.value,
                                              cache.ln2.mean, cache.ln2.rstd);
  tensor::add_(ln2_gamma.grad, ln2_grads.dgamma);
  tensor::add_(ln2_beta.grad, ln2_grads.dbeta);

  // dh1 = residual path (dy) + LayerNorm path.
  Tensor dh1 = tensor::add(dy2d, ln2_grads.dx);

  // ---- first residual: h1 = dropout(attn_out + proj_bias) + x ----
  Tensor d_after1 = tensor::mul(dh1, cache.attn_resid_mask);
  tensor::add_(bind.proj->bias().grad, tensor::bias_grad(d_after1));
  Tensor d_ln1y = attention_backward(bind, d_after1.view({s, b, h}), cache.attn)
                      .view({s * b, h});

  Tensor x2d = cache.input.view({s * b, h});
  auto ln1_grads = tensor::layernorm_backward(d_ln1y, x2d, ln1_gamma.value,
                                              cache.ln1.mean, cache.ln1.rstd);
  tensor::add_(ln1_gamma.grad, ln1_grads.dgamma);
  tensor::add_(ln1_beta.grad, ln1_grads.dbeta);

  Tensor dx = tensor::add(dh1, ln1_grads.dx);
  return dx.view({s, b, h});
}

Tensor layer_backward_recompute(const LayerBinding& bind, const Tensor& dy,
                                LayerCache& cache, std::uint64_t mb_tag) {
  const Tensor input = cache.input;
  cache = LayerCache{};
  (void)layer_forward(bind, input, cache, mb_tag);
  return layer_backward(bind, dy, cache);
}

}  // namespace ptdp::reference
