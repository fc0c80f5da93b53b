#pragma once

// Test-only reference for the optimizer step: the four-pass
// mixed-precision step that optim::ElementwiseOptimizer's fused body
// replaced, kept as a bitwise oracle. It runs a plain f32 SGD or Adam step
// on each param's value and, with a loss scaler, wraps it in four passes:
//   1. scan the grads for inf/nan and update the scaler (skip on overflow);
//   2. unscale the grads in place;
//   3. swap each fp32 master in as the param value and run the plain step;
//   4. narrow the masters back: cast_into for bf16-storage params,
//      copy_from then per-element rounding for f32-storage params.
// The oracle suite compares it with optim::Sgd / optim::Adam bit for bit.
//
// all_reduce_mean is the replicated data-parallel reduction the sharded
// step replaced: with it, OptimizerStep on every rank is the oracle for
// comm::GradReducer + a sharded optim::Sgd / optim::Adam + the weight
// all-gather.

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "ptdp/optim/optimizer.hpp"

namespace ptdp::reference {

/// Flattens `params` (one model chunk) into buckets as comm::GradReducer
/// plans them (greedy, at most bucket_elems elements, a param never split),
/// Comm::all_reduce's each bucket and multiplies it by 1/d: every rank ends
/// holding every mean grad.
void all_reduce_mean(const model::ParamRefs& params, const dist::Comm& data,
                     std::int64_t bucket_elems);

class OptimizerStep {
 public:
  using Rule = std::variant<optim::SgdOptions, optim::AdamOptions>;

  /// Without `scaler` every step is the plain f32 rule on the values.
  OptimizerStep(model::ParamRefs params, Rule rule,
                std::optional<optim::LossScalerOptions> scaler);

  void step();
  /// Rule state (velocity or Adam moments and step count), then masters —
  /// the wrapper's checkpoint order.
  optim::NamedState state_tensors();
  float scale() const { return scale_; }
  std::int64_t skipped_steps() const { return skipped_; }

 private:
  void plain_step();

  model::ParamRefs params_;
  Rule rule_;
  std::optional<optim::LossScalerOptions> scaler_;
  float scale_ = 1.0f;
  int good_steps_ = 0;
  std::int64_t skipped_ = 0;
  std::vector<tensor::Tensor> master_;
  /// The param's own tensor for bf16-storage params; undefined for f32
  /// params, whose values are rounded in place.
  std::vector<tensor::Tensor> working_;
  std::vector<tensor::Tensor> velocity_, m_, v_;
  tensor::Tensor step_count_{tensor::Shape{1}};
};

}  // namespace ptdp::reference
