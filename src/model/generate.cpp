#include "ptdp/model/generate.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

using tensor::Tensor;

Tensor forward_logits(GptStage& stage, std::span<const std::int32_t> tokens,
                      std::int64_t s, std::int64_t b) {
  PTDP_CHECK(stage.spec().has_embedding && stage.spec().has_head)
      << "forward_logits needs the whole model on one stage";
  PTDP_CHECK_EQ(stage.config().dropout, 0.0f)
      << "build the inference model with dropout = 0";
  return stage.logits(tokens, s, b);
}

std::int32_t sample_token(std::span<const float> logits_row,
                          const GenerateOptions& options, Rng& rng) {
  const std::int64_t vocab = static_cast<std::int64_t>(logits_row.size());
  PTDP_CHECK_GT(vocab, 0);
  if (options.greedy) {
    return static_cast<std::int32_t>(
        std::max_element(logits_row.begin(), logits_row.end()) -
        logits_row.begin());
  }
  PTDP_CHECK_GT(options.temperature, 0.0f);

  // Top-k restriction: keep the k highest logits, breaking ties at the
  // k-th value toward lower token ids so the kept set is deterministic.
  std::vector<char> allowed(static_cast<std::size_t>(vocab), 1);
  if (options.top_k > 0 && options.top_k < vocab) {
    std::vector<float> vals(logits_row.begin(), logits_row.end());
    std::nth_element(vals.begin(), vals.begin() + (options.top_k - 1), vals.end(),
                     std::greater<float>());
    const float thr = vals[static_cast<std::size_t>(options.top_k - 1)];
    std::fill(allowed.begin(), allowed.end(), 0);
    std::int64_t taken = 0;
    for (std::int64_t v = 0; v < vocab; ++v) {
      if (logits_row[static_cast<std::size_t>(v)] > thr) {
        allowed[static_cast<std::size_t>(v)] = 1;
        ++taken;
      }
    }
    for (std::int64_t v = 0; v < vocab && taken < options.top_k; ++v) {
      if (!allowed[static_cast<std::size_t>(v)] &&
          logits_row[static_cast<std::size_t>(v)] == thr) {
        allowed[static_cast<std::size_t>(v)] = 1;
        ++taken;
      }
    }
  }

  // Temperature softmax over the kept set + inverse-CDF sample.
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t v = 0; v < vocab; ++v) {
    if (allowed[static_cast<std::size_t>(v)]) {
      mx = std::max(mx, logits_row[static_cast<std::size_t>(v)]);
    }
  }
  std::vector<double> probs(static_cast<std::size_t>(vocab), 0.0);
  double z = 0.0;
  for (std::int64_t v = 0; v < vocab; ++v) {
    if (!allowed[static_cast<std::size_t>(v)]) continue;
    probs[static_cast<std::size_t>(v)] = std::exp(
        (logits_row[static_cast<std::size_t>(v)] - mx) / options.temperature);
    z += probs[static_cast<std::size_t>(v)];
  }
  double u = rng.next_uniform() * z;
  std::int32_t last_allowed = 0;
  for (std::int64_t v = 0; v < vocab; ++v) {
    if (!allowed[static_cast<std::size_t>(v)]) continue;
    last_allowed = static_cast<std::int32_t>(v);
    u -= probs[static_cast<std::size_t>(v)];
    if (u <= 0.0) return static_cast<std::int32_t>(v);
  }
  return last_allowed;  // rounding left u > 0: the last kept token
}

std::vector<std::int32_t> generate(GptStage& stage,
                                   std::span<const std::int32_t> prompt,
                                   const GenerateOptions& options) {
  PTDP_CHECK(!prompt.empty()) << "prompt must contain at least one token";
  const std::int64_t window = stage.config().seq;
  const std::int64_t vocab = stage.config().vocab;
  std::vector<std::int32_t> out(prompt.begin(), prompt.end());
  Rng rng(options.seed, substream(0x9E4EA7E));

  // KV-cached steps stop at the window, so this many positions ever sit in
  // the cache; it is reserved at the first cached step.
  const std::int64_t kv_tokens = std::min<std::int64_t>(
      window, static_cast<std::int64_t>(prompt.size()) + options.max_new_tokens);
  constexpr std::int64_t kBlockTokens = 16;
  PagedKvCache kv({stage.config().num_layers,
                   stage.kv_heads_local() * stage.kv_head_dim(), kBlockTokens,
                   (kv_tokens + kBlockTokens - 1) / kBlockTokens,
                   /*record_metrics=*/false});
  std::int64_t cached = 0;  // positions materialized in the KV store

  for (std::int64_t step = 0; step < options.max_new_tokens; ++step) {
    const std::int64_t total = static_cast<std::int64_t>(out.size());
    std::span<const float> row;
    Tensor logits;
    if (options.use_kv_cache && total <= window) {
      // Incremental: feed only the not-yet-cached suffix (the whole prompt
      // on the first step, the single new token afterwards).
      if (cached == 0) {
        PTDP_CHECK(kv.try_reserve(/*seq=*/0, kv_tokens));
      }
      const DecodeSeq seq{/*id=*/0, cached, total - cached};
      std::span<const std::int32_t> fresh(out.data() + cached,
                                          static_cast<std::size_t>(total - cached));
      logits = stage.decode(std::span<const DecodeSeq>(&seq, 1), fresh, kv);
      row = logits.data().subspan(0, static_cast<std::size_t>(vocab));
      cached = total;
    } else {
      // Full forward: the reference oracle, and the fallback once the
      // context slides past the trained window (cached positions would no
      // longer match the truncated context).
      const std::int64_t ctx_len = std::min<std::int64_t>(window, total);
      std::span<const std::int32_t> ctx(out.data() + total - ctx_len,
                                        static_cast<std::size_t>(ctx_len));
      logits = forward_logits(stage, ctx, ctx_len, /*b=*/1);
      row = logits.data().subspan(static_cast<std::size_t>((ctx_len - 1) * vocab),
                                  static_cast<std::size_t>(vocab));
    }
    out.push_back(sample_token(row, options, rng));
  }
  return out;
}

}  // namespace ptdp::model
