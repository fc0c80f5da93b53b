#include "ptdp/model/embedding.hpp"

#include <algorithm>

#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

using tensor::Tensor;

VocabParallelEmbedding::VocabParallelEmbedding(const GptConfig& config, dist::Comm tp)
    : config_(config), tp_(std::move(tp)) {
  const int t = tp_.size();
  PTDP_CHECK_EQ(config.vocab % t, 0)
      << "vocab " << config.vocab << " must divide by tensor size " << t;
  vocab_per_rank_ = config.vocab / t;
  vocab_begin_ = tp_.rank() * vocab_per_rank_;
  word_ = Param{"embedding.word",
                init_weight_row_shard("embedding.word", config.vocab, config.hidden,
                                      vocab_begin_, vocab_begin_ + vocab_per_rank_,
                                      config.init_stddev, config.seed),
                Tensor({vocab_per_rank_, config.hidden}), /*replicated=*/false};
  {
    Rng rng(config.seed, param_stream("embedding.pos"));
    position_ = Param{"embedding.pos",
                      Tensor::randn({config.seq, config.hidden}, rng,
                                    config.init_stddev),
                      Tensor({config.seq, config.hidden}), /*replicated=*/true};
  }
}

Tensor VocabParallelEmbedding::forward(std::span<const std::int32_t> tokens,
                                       std::int64_t s, std::int64_t b,
                                       EmbeddingCache& cache, std::uint64_t mb_tag) {
  PTDP_CHECK_EQ(static_cast<std::int64_t>(tokens.size()), s * b);
  PTDP_CHECK_LE(s, config_.seq) << "sequence longer than position table";
  cache.tokens.assign(tokens.begin(), tokens.end());
  cache.s = s;
  cache.b = b;
  cache.mb_tag = mb_tag;
  const std::int64_t h = config_.hidden;

  // The lookup output escapes as the stage activation (the pipeline owns
  // it until backward), so it is a real pooled allocation — deliberately
  // not TensorArena scratch, unlike the head's per-call transients.
  Tensor out({s * b, h});
  auto dw = word_.value.data();
  auto dout = out.data();
  for (std::int64_t i = 0; i < s * b; ++i) {
    const std::int32_t id = tokens[static_cast<std::size_t>(i)];
    PTDP_CHECK(id >= 0 && id < config_.vocab) << "token id " << id;
    const std::int64_t local = id - vocab_begin_;
    if (local >= 0 && local < vocab_per_rank_) {
      std::copy_n(dw.data() + local * h, h, dout.data() + i * h);
    }
  }
  // Operator g: sum the partial lookups across vocab shards.
  tp_.all_reduce(out.data());

  // Position embeddings: row i_s added to every batch column.
  auto dp = position_.value.data();
  for (std::int64_t is = 0; is < s; ++is) {
    const float* prow = dp.data() + is * h;
    for (std::int64_t ib = 0; ib < b; ++ib) {
      float* row = dout.data() + (is * b + ib) * h;
      for (std::int64_t j = 0; j < h; ++j) row[j] += prow[j];
    }
  }

  if (config_.dropout > 0.0f) {
    out = tensor::dropout(out, config_.dropout, drop_rng(mb_tag));
  }
  return out.view({s, b, h});
}

Tensor VocabParallelEmbedding::forward_at(std::span<const std::int32_t> tokens,
                                          std::span<const std::int32_t> positions) {
  PTDP_CHECK_EQ(tokens.size(), positions.size());
  PTDP_CHECK_EQ(config_.dropout, 0.0f) << "disable dropout for decoding";
  const std::int64_t n = static_cast<std::int64_t>(tokens.size());
  const std::int64_t h = config_.hidden;

  // Same shard lookup + all-reduce + position add as forward(), with the
  // position row chosen per token instead of by row index.
  Tensor out({n, h});
  auto dw = word_.value.data();
  auto dout = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t id = tokens[static_cast<std::size_t>(i)];
    PTDP_CHECK(id >= 0 && id < config_.vocab) << "token id " << id;
    const std::int64_t local = id - vocab_begin_;
    if (local >= 0 && local < vocab_per_rank_) {
      std::copy_n(dw.data() + local * h, h, dout.data() + i * h);
    }
  }
  tp_.all_reduce(out.data());

  auto dp = position_.value.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t pos = positions[static_cast<std::size_t>(i)];
    PTDP_CHECK(pos >= 0 && pos < config_.seq)
        << "position " << pos << " outside the trained window";
    const float* prow = dp.data() + pos * h;
    float* row = dout.data() + i * h;
    for (std::int64_t j = 0; j < h; ++j) row[j] += prow[j];
  }
  return out;
}

void VocabParallelEmbedding::backward(const Tensor& dy, const EmbeddingCache& cache) {
  const std::int64_t s = cache.s;
  const std::int64_t b = cache.b;
  const std::int64_t h = config_.hidden;
  Tensor d2d = dy.view({s * b, h});
  if (config_.dropout > 0.0f) {
    d2d = tensor::dropout_backward(d2d, config_.dropout, drop_rng(cache.mb_tag));
  }

  // Position grads (identical on every tensor rank — replicated param).
  auto dd = d2d.data();
  auto dpg = position_.grad.data();
  for (std::int64_t is = 0; is < s; ++is) {
    float* prow = dpg.data() + is * h;
    for (std::int64_t ib = 0; ib < b; ++ib) {
      const float* row = dd.data() + (is * b + ib) * h;
      for (std::int64_t j = 0; j < h; ++j) prow[j] += row[j];
    }
  }

  // Word grads: scatter-add rows this shard owns. No communication — each
  // rank contributed exactly its own rows in the forward lookup.
  auto dwg = word_.grad.data();
  for (std::int64_t i = 0; i < s * b; ++i) {
    const std::int64_t local = cache.tokens[static_cast<std::size_t>(i)] - vocab_begin_;
    if (local >= 0 && local < vocab_per_rank_) {
      const float* src = dd.data() + i * h;
      float* dst = dwg.data() + local * h;
      for (std::int64_t j = 0; j < h; ++j) dst[j] += src[j];
    }
  }
}

void VocabParallelEmbedding::collect_params(ParamRefs& out) {
  out.push_back(&word_);
  out.push_back(&position_);
}

}  // namespace ptdp::model
