#include "ptdp/model/attention.hpp"

#include <cmath>

namespace ptdp::model {

namespace {
std::string layer_name(std::int64_t layer, const char* suffix) {
  return "layer" + std::to_string(layer) + ".attn." + suffix;
}
}  // namespace

ParallelAttention::ParallelAttention(const GptConfig& config,
                                     std::int64_t global_layer_idx, dist::Comm tp)
    : qkv_(layer_name(global_layer_idx, "qkv"), config.hidden, 3 * config.hidden, tp,
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

void ParallelAttention::collect_params(ParamRefs& out) {
  qkv_.collect_params(out);
  proj_.collect_params(out);
}

}  // namespace ptdp::model
