#include "ptdp/model/attention.hpp"

#include <algorithm>
#include <cmath>

#include "ptdp/runtime/parallel_for.hpp"

namespace ptdp::model {

using tensor::Tensor;

namespace {
std::string layer_name(std::int64_t layer, const char* suffix) {
  return "layer" + std::to_string(layer) + ".attn." + suffix;
}
}  // namespace

ParallelAttention::ParallelAttention(const GptConfig& config,
                                     std::int64_t global_layer_idx, dist::Comm tp)
    : config_(config),
      layer_idx_(global_layer_idx),
      qkv_(layer_name(global_layer_idx, "qkv"), config.hidden, 3 * config.hidden, tp,
           config.init_stddev, config.seed, /*skip_bias_add=*/false, config.dtype),
      proj_(layer_name(global_layer_idx, "proj"), config.hidden, config.hidden, tp,
            // Scaled init for residual-path projections (Megatron convention).
            config.init_stddev /
                std::sqrt(2.0f * static_cast<float>(config.num_layers)),
            config.seed, /*skip_bias_add=*/true, config.dtype) {
  const int t = tp.size();
  PTDP_CHECK_EQ(config.heads % t, 0)
      << "attention heads (" << config.heads << ") must divide by tensor size " << t;
  PTDP_CHECK_EQ(config.hidden % config.heads, 0);
  heads_local_ = config.heads / t;
  head_dim_ = config.hidden / config.heads;
  hidden_local_ = heads_local_ * head_dim_;
  head_begin_ = heads_local_ * tp.rank();
}

Tensor ParallelAttention::make_prob_dropout_mask(std::int64_t b,
                                                 std::uint64_t mb_tag) const {
  const std::int64_t s = config_.seq;
  Tensor mask = Tensor::empty({b * heads_local_, s, s});
  const float p = config_.dropout;
  const float keep_scale = 1.0f / (1.0f - p);
  auto dm = mask.data();
  // Each (batch, head) slab draws from its own site-keyed RNG stream, so the
  // slabs can be filled by the intra-op pool in any order without changing a
  // single draw.
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 15) / std::max<std::int64_t>(s * s, 1));
  runtime::parallel_for(
      0, b * heads_local_, grain, [&](std::int64_t u0, std::int64_t u1) {
        for (std::int64_t u = u0; u < u1; ++u) {
          const std::int64_t bi = u / heads_local_;
          const std::int64_t lh = u % heads_local_;
          // Keyed by the *global* head index so tensor-parallel ranks draw the
          // same mask the serial model draws for this head.
          const std::int64_t gh = head_begin_ + lh;
          Rng rng = site_rng(config_.seed, mb_tag,
                             static_cast<std::uint64_t>(layer_idx_),
                             DropSite::kAttentionProb,
                             static_cast<std::uint64_t>(bi * config_.heads + gh));
          float* slab = dm.data() + u * s * s;
          for (std::int64_t i = 0; i < s * s; ++i) {
            slab[i] = rng.next_bernoulli(p) ? 0.0f : keep_scale;
          }
        }
      });
  return mask;
}

void ParallelAttention::collect_params(ParamRefs& out) {
  qkv_.collect_params(out);
  proj_.collect_params(out);
}

}  // namespace ptdp::model
