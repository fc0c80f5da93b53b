#include "ptdp/model/mlp.hpp"

#include <cmath>

namespace ptdp::model {

ParallelMlp::ParallelMlp(const GptConfig& config, std::int64_t global_layer_idx,
                         dist::Comm tp)
    : fc1_("layer" + std::to_string(global_layer_idx) + ".mlp.fc1", config.hidden,
           config.ffn_hidden(), tp, config.init_stddev, config.seed,
           /*skip_bias_add=*/true, config.dtype),
      fc2_("layer" + std::to_string(global_layer_idx) + ".mlp.fc2",
           config.ffn_hidden(), config.hidden, std::move(tp),
           config.init_stddev /
               std::sqrt(2.0f * static_cast<float>(config.num_layers)),
           config.seed, /*skip_bias_add=*/true, config.dtype) {}

void ParallelMlp::collect_params(ParamRefs& out) {
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

}  // namespace ptdp::model
