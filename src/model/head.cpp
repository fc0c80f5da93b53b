#include "ptdp/model/head.hpp"

#include <cmath>

namespace ptdp::model {

using tensor::Tensor;

namespace {

// A GEMM operand of the head under the model rule (DESIGN.md §13): in a
// bf16 model every head product runs bf16 x bf16 with f32 accumulation,
// like the linears. The tied word is stored f32 there but holds bf16
// values (each working value is its narrowed fp32 master), so narrowing it
// is exact. f32 models pass through untouched.
Tensor gemm_operand(const Tensor& t, tensor::DType model_dtype) {
  if (model_dtype == tensor::DType::kBf16 && t.dtype() == tensor::DType::kF32) {
    return t.to(tensor::DType::kBf16);
  }
  return t;
}

}  // namespace

GptHead::GptHead(const GptConfig& config, dist::Comm tp, Param* tied_word)
    : config_(config),
      tp_(std::move(tp)),
      ln_gamma_(Param{"final_ln.gamma", Tensor::full({config.hidden}, 1.0f),
                      Tensor({config.hidden}), /*replicated=*/true}),
      ln_beta_(Param{"final_ln.beta", Tensor({config.hidden}),
                     Tensor({config.hidden}), /*replicated=*/true}) {
  const int t = tp_.size();
  PTDP_CHECK_EQ(config.vocab % t, 0);
  vocab_per_rank_ = config.vocab / t;
  vocab_begin_ = tp_.rank() * vocab_per_rank_;
  if (tied_word != nullptr) {
    word_ = tied_word;
  } else {
    // Same name + same shard range => bitwise-identical init to the first
    // stage's embedding; the embedding-group grad all-reduce keeps the two
    // copies in lockstep thereafter.
    own_word_ = Param{"embedding.word",
                      init_weight_row_shard("embedding.word", config.vocab,
                                            config.hidden, vocab_begin_,
                                            vocab_begin_ + vocab_per_rank_,
                                            config.init_stddev, config.seed),
                      Tensor({vocab_per_rank_, config.hidden}),
                      /*replicated=*/false};
    word_ = &*own_word_;
  }
}

float GptHead::forward(const Tensor& x, std::span<const std::int32_t> targets,
                       HeadCache& cache, std::span<const float> loss_weights) {
  PTDP_CHECK_EQ(x.ndim(), 3);
  const std::int64_t s = x.dim(0);
  const std::int64_t b = x.dim(1);
  const std::int64_t h = config_.hidden;
  const std::int64_t n = s * b;
  PTDP_CHECK_EQ(static_cast<std::int64_t>(targets.size()), n);
  cache.input = x;
  cache.s = s;
  cache.b = b;

  Tensor x2d = x.view({n, h});
  cache.ln = tensor::layernorm(x2d, ln_gamma_.value, ln_beta_.value);

  // Column-parallel logits through the tied embedding: [n, V/t]. The cache
  // keeps the LN output as the GEMM reads it (narrowed in a bf16 model), the
  // operand of the weight grad; the layernorm backward reads only mean and
  // rstd.
  cache.ln.y = gemm_operand(cache.ln.y, config_.dtype);
  Tensor logits =
      tensor::matmul_nt(cache.ln.y, gemm_operand(word_->value, config_.dtype));

  // Vocab-parallel cross entropy.
  Tensor rowmax = tensor::row_max(logits);                 // local max
  tp_.all_reduce(rowmax.data(), dist::ReduceOp::kMax);     // global max

  cache.exp_shift = Tensor::empty({n, vocab_per_rank_});
  auto dl = logits.data();
  auto dm = rowmax.data();
  auto de = cache.exp_shift.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float m = dm[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < vocab_per_rank_; ++j) {
      de[static_cast<std::size_t>(i * vocab_per_rank_ + j)] =
          std::exp(dl[static_cast<std::size_t>(i * vocab_per_rank_ + j)] - m);
    }
  }
  Tensor z = tensor::row_sum(cache.exp_shift);
  tp_.all_reduce(z.data());  // global Σexp

  // Target logits: the rank owning each target contributes it; others 0.
  cache.local_targets.assign(static_cast<std::size_t>(n), -1);
  Tensor& target_logit = scratch_.zeros(kTargetLogit, {n});
  auto dt = target_logit.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t tgt = targets[static_cast<std::size_t>(i)];
    PTDP_CHECK(tgt >= 0 && tgt < config_.vocab) << "target " << tgt;
    const std::int64_t local = tgt - vocab_begin_;
    if (local >= 0 && local < vocab_per_rank_) {
      cache.local_targets[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(local);
      dt[static_cast<std::size_t>(i)] =
          dl[static_cast<std::size_t>(i * vocab_per_rank_ + local)];
    }
  }
  tp_.all_reduce(target_logit.data());

  // Per-row weights: uniform 1/n by default; normalized loss mask for MLM.
  cache.row_weight.assign(static_cast<std::size_t>(n),
                          1.0f / static_cast<float>(n));
  if (!loss_weights.empty()) {
    PTDP_CHECK_EQ(static_cast<std::int64_t>(loss_weights.size()), n);
    double wsum = 0.0;
    for (float w : loss_weights) {
      PTDP_CHECK_GE(w, 0.0f);
      wsum += w;
    }
    PTDP_CHECK_GT(wsum, 0.0) << "loss mask selects no tokens";
    for (std::int64_t i = 0; i < n; ++i) {
      cache.row_weight[static_cast<std::size_t>(i)] =
          static_cast<float>(loss_weights[static_cast<std::size_t>(i)] / wsum);
    }
  }

  cache.inv_z.resize(static_cast<std::size_t>(n));
  auto dz = z.data();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    cache.inv_z[static_cast<std::size_t>(i)] = 1.0f / dz[static_cast<std::size_t>(i)];
    // log-sum-exp = m + log Z; loss_i = lse − target_logit_i.
    loss += cache.row_weight[static_cast<std::size_t>(i)] *
            (dm[static_cast<std::size_t>(i)] +
             std::log(dz[static_cast<std::size_t>(i)]) -
             dt[static_cast<std::size_t>(i)]);
  }
  return static_cast<float>(loss);
}

Tensor GptHead::backward(float loss_scale, const HeadCache& cache) {
  const std::int64_t s = cache.s;
  const std::int64_t b = cache.b;
  const std::int64_t h = config_.hidden;
  const std::int64_t n = s * b;

  // dlogits[i,j] = (softmax_ij − 1{j == target_i}) * loss_scale * w_i,
  // where w_i is the (normalized) per-token loss weight (1/n by default).
  Tensor& dlogits = scratch_.empty(kDlogits, {n, vocab_per_rank_});
  auto de = cache.exp_shift.data();
  auto dd = dlogits.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float wi = loss_scale * cache.row_weight[static_cast<std::size_t>(i)];
    const float iz = cache.inv_z[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < vocab_per_rank_; ++j) {
      dd[static_cast<std::size_t>(i * vocab_per_rank_ + j)] =
          de[static_cast<std::size_t>(i * vocab_per_rank_ + j)] * iz * wi;
    }
    const std::int32_t local = cache.local_targets[static_cast<std::size_t>(i)];
    if (local >= 0) {
      dd[static_cast<std::size_t>(i * vocab_per_rank_ + local)] -= wi;
    }
  }

  // Tied-weight grad: dW += dlogitsᵀ · LN(x).
  const Tensor dlogits_gemm = gemm_operand(dlogits, config_.dtype);
  tensor::add_matmul_tn_(word_->grad, dlogits_gemm, cache.ln.y);

  // dLN(x) = dlogits · W, summed over vocab shards (operator f backward).
  Tensor d_lny =
      tensor::matmul(dlogits_gemm, gemm_operand(word_->value, config_.dtype));
  tp_.all_reduce(d_lny.data());

  Tensor x2d = cache.input.view({n, h});
  auto ln_grads = tensor::layernorm_backward(d_lny, x2d, ln_gamma_.value,
                                             cache.ln.mean, cache.ln.rstd);
  tensor::add_(ln_gamma_.grad, ln_grads.dgamma);
  tensor::add_(ln_beta_.grad, ln_grads.dbeta);
  return ln_grads.dx.view({s, b, h});
}

Tensor GptHead::full_logits(const Tensor& x) {
  PTDP_CHECK_EQ(x.ndim(), 3);
  const std::int64_t n = x.dim(0) * x.dim(1);
  Tensor x2d = x.view({n, config_.hidden});
  auto ln = tensor::layernorm(x2d, ln_gamma_.value, ln_beta_.value);
  Tensor local = tensor::matmul_nt(  // [n, V/t]
      gemm_operand(ln.y, config_.dtype), gemm_operand(word_->value, config_.dtype));
  if (tp_.size() == 1) return local;
  // Gather the vocab shards: ranks contribute column blocks in rank order.
  Tensor& gathered = scratch_.empty(
      kGather, {static_cast<std::int64_t>(tp_.size()), n, vocab_per_rank_});
  tp_.all_gather(std::span<const float>(local.data()), gathered.data());
  return gathered.permute({1, 0, 2}).view({n, config_.vocab});
}

void GptHead::collect_params(ParamRefs& out) {
  out.push_back(&ln_gamma_);
  out.push_back(&ln_beta_);
  if (own_word_) out.push_back(&*own_word_);
}

}  // namespace ptdp::model
