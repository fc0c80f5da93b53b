#pragma once

// Optimizers over Param lists: SGD with momentum and Adam, optionally with
// fp32 master weights and dynamic loss scaling (mixed precision, DESIGN.md
// §13), plus the distributed gradient-norm computation used for clipping.
// Grad-norm accounting follows Megatron: parameters whose grads are
// replicated across tensor-parallel ranks contribute once (rank 0 of the
// tensor group), and partial sums are reduced over the tensor and pipeline
// groups.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/param.hpp"

namespace ptdp::optim {

/// Named tensors an optimizer wants checkpointed (momentum/Adam moments).
using NamedState = std::vector<std::pair<std::string, tensor::Tensor*>>;

/// Rounds to the nearest bfloat16-representable float (round-to-nearest-
/// even) — the value a bf16 working weight holds for an fp32 master.
float bf16_round(float v);

struct LossScalerOptions {
  float initial_scale = 1024.0f;
  float growth_factor = 2.0f;
  float backoff_factor = 0.5f;
  int growth_interval = 16;  ///< consecutive good steps before growing
  float min_scale = 1.0f;
  float max_scale = 1 << 24;
};

/// Dynamic loss scaler: multiply the loss by scale(), divide grads by it,
/// and feed update() the overflow flag each step.
class DynamicLossScaler {
 public:
  explicit DynamicLossScaler(LossScalerOptions options = {});
  float scale() const { return state_.at({0}); }
  /// Records the outcome of a step. Returns true if the step should be
  /// applied (no overflow), false if it must be skipped.
  bool update(bool found_overflow);
  std::int64_t skipped_steps() const {
    return static_cast<std::int64_t>(state_.at({2}));
  }
  /// {scale, consecutive good steps, skipped steps}. Checkpointed with the
  /// optimizer, so a resumed run continues the scale schedule.
  tensor::Tensor& state() { return state_; }

 private:
  LossScalerOptions options_;
  tensor::Tensor state_{tensor::Shape{3}};
};

/// True if any grad contains a non-finite value (after the data-parallel
/// all-reduce, so every replica agrees).
bool grads_have_overflow(const model::ParamRefs& params);

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update from the accumulated grads. Grads are not zeroed.
  virtual void step() = 0;
  virtual NamedState state_tensors() = 0;
  virtual const std::vector<model::Param*>& params() const = 0;
  /// Updates the learning rate (used by LR schedules between steps).
  virtual void set_lr(float lr) = 0;
  virtual float lr() const = 0;
  /// Factor the trainer multiplies into the loss before backward: the
  /// dynamic loss scale under mixed precision, else 1.
  virtual float loss_scale() const { return 1.0f; }
  /// Steps skipped so far because the scaled grads overflowed.
  virtual std::int64_t skipped_steps() const { return 0; }
};

/// The step body Sgd and Adam share. Without a scaler the rule updates each
/// param's f32 value in place. With one (mixed precision):
///   - every param gets an fp32 master, checkpointed as
///     `<name>.fp32_master`. Its working value is bf16_round(master),
///     stored at the param's own dtype: real bf16 storage (the GEMM weights
///     of a bf16 model) or bf16-valued f32 (its LayerNorms, embeddings and
///     biases). One narrowing rule serves both.
///   - step() scans the grads for inf/nan and updates the scaler, skipping
///     the step on overflow. Otherwise one fused pass per param multiplies
///     the grad by 1/scale, applies the rule to the master, and narrows the
///     result into the working tensor.
class ElementwiseOptimizer : public Optimizer {
 public:
  void step() final;
  /// The rule's state, then the masters, then the scaler state.
  NamedState state_tensors() final;
  const std::vector<model::Param*>& params() const final { return params_; }
  float loss_scale() const final { return scaler_ ? scaler_->scale() : 1.0f; }
  std::int64_t skipped_steps() const final {
    return scaler_ ? scaler_->skipped_steps() : 0;
  }

 protected:
  ElementwiseOptimizer(model::ParamRefs params,
                       std::optional<LossScalerOptions> scaler);
  /// One applied step of the rule over every param, each grad multiplied
  /// by `grad_scale` first.
  virtual void apply(float grad_scale) = 0;
  /// The rule's own checkpointed state (moments, counters).
  virtual NamedState rule_state() = 0;
  /// Param i's fp32 master, or nullptr without mixed precision.
  tensor::Tensor* master(std::size_t i) {
    return master_.empty() ? nullptr : &master_[i];
  }

  model::ParamRefs params_;

 private:
  std::optional<DynamicLossScaler> scaler_;
  std::vector<tensor::Tensor> master_;
};

struct SgdOptions {
  float lr = 0.1f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd final : public ElementwiseOptimizer {
 public:
  Sgd(model::ParamRefs params, SgdOptions options,
      std::optional<LossScalerOptions> scaler = std::nullopt);
  void set_lr(float lr) override { options_.lr = lr; }
  float lr() const override { return options_.lr; }

 private:
  void apply(float grad_scale) override;
  NamedState rule_state() override;

  SgdOptions options_;
  std::vector<tensor::Tensor> velocity_;  ///< allocated only if momentum != 0
};

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam's bias-corrected step size lr·sqrt(1-beta2^t)/(1-beta1^t) at
/// 1-based step t.
float adam_step_size(const AdamOptions& o, double t);

/// The Adam update over one contiguous range: grad = g·grad_scale +
/// weight_decay·w, then the moments m, v and the weights w. Adam and the
/// ZeRO-sharded Adam both run it.
void adam_update(const AdamOptions& o, float step_size, float grad_scale,
                 std::span<const float> g, std::span<float> w,
                 std::span<float> m, std::span<float> v);

class Adam final : public ElementwiseOptimizer {
 public:
  Adam(model::ParamRefs params, AdamOptions options,
       std::optional<LossScalerOptions> scaler = std::nullopt);
  void set_lr(float lr) override { options_.lr = lr; }
  float lr() const override { return options_.lr; }
  std::int64_t steps_taken() const {
    return static_cast<std::int64_t>(step_count_.at({0}));
  }

 private:
  void apply(float grad_scale) override;
  NamedState rule_state() override;

  AdamOptions options_;
  std::vector<tensor::Tensor> m_, v_;
  // Stored as a 1-element tensor so checkpoints carry the bias-correction
  // counter and resumed training is bit-exact.
  tensor::Tensor step_count_{tensor::Shape{1}};
};

/// Global L2 norm of all grads for this model replica. `tp`/`pp` may be
/// nullptr when that parallel dimension is 1. Every rank returns the same
/// value.
double global_grad_norm(const model::ParamRefs& params, const dist::Comm* tp,
                        const dist::Comm* pp);

/// Scales grads by max_norm/norm when norm > max_norm. Returns the
/// pre-clip norm.
double clip_grad_norm(const model::ParamRefs& params, double max_norm,
                      const dist::Comm* tp, const dist::Comm* pp);

}  // namespace ptdp::optim
