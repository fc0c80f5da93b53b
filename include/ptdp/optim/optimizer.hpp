#pragma once

// Optimizers over Param lists: SGD with momentum and Adam, optionally with
// fp32 master weights and dynamic loss scaling (mixed precision, DESIGN.md
// §13) and with their state sharded over the data-parallel group (ZeRO-1/2,
// DESIGN.md §9), plus the distributed gradient-norm computation used for
// clipping.
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

#include "ptdp/comm/grad_reducer.hpp"
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

/// Every element of every param, one segment per param.
std::vector<model::ParamSegment> whole_segments(const model::ParamRefs& params);

/// True if any of the segments' grads holds a non-finite value.
bool grads_have_overflow(std::span<const model::ParamSegment> segments);

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update from the accumulated grads. Grads are not zeroed.
  virtual void step() = 0;
  /// Checkpointed state: names, full per-param shapes, fixed order. A
  /// sharded optimizer returns staged full copies (a collective over its
  /// data group); call commit_state() when done with them.
  virtual NamedState state_tensors() = 0;
  /// Makes writes into state_tensors()' tensors take effect (a checkpoint
  /// load) and frees any staging. A no-op when they are the live state.
  virtual void commit_state() {}
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

/// The ranks a step runs among. The defaults describe a lone rank.
struct StepGroup {
  /// Every rank of the world. The overflow flag is all-reduced over it, so
  /// every pipeline stage, tensor shard and data-parallel replica skips the
  /// same steps and keeps the same loss scale.
  dist::Comm world = dist::Comm::solo();
  /// The data-parallel reducer, whose params() must be the optimizer's
  /// params. At d > 1 the rank steps only the reducer's owned() segments,
  /// keeps masters and rule state for only those elements, and all-gathers
  /// the updated working values through it (ZeRO-1/2, DESIGN.md §9).
  /// nullptr: a lone replica.
  comm::GradReducer* reducer = nullptr;
};

/// The step body Sgd and Adam share. The rank steps its segments: every
/// element of every param, or its owned share when the data group shards
/// the step (StepGroup::reducer). Without a scaler the rule updates the
/// f32 values in place. With one (mixed precision):
///   - every stepped element gets an fp32 master, checkpointed per param as
///     `<name>.fp32_master`. The working value is bf16_round(master),
///     stored at the param's own dtype: real bf16 storage (the GEMM weights
///     of a bf16 model) or bf16-valued f32 (its LayerNorms, embeddings and
///     biases). One narrowing rule serves both.
///   - step() scans the stepped grads for inf/nan, all-reduces the flag
///     over the world and updates the scaler, skipping the step on
///     overflow. Otherwise one fused pass per segment multiplies the grad
///     by 1/scale, applies the rule to the master, and narrows the result
///     into the working tensor.
/// A sharded step then all-gathers the working values in the model dtype:
/// bf16 when there are masters (every working value is bf16-valued), else
/// f32.
class ElementwiseOptimizer : public Optimizer {
 public:
  void step() final;
  /// Per param, the rule's per-element state; then the rule's scalars;
  /// then the masters; then the scaler state.
  NamedState state_tensors() final;
  void commit_state() final;
  const std::vector<model::Param*>& params() const final { return params_; }
  float loss_scale() const final { return scaler_ ? scaler_->scale() : 1.0f; }
  std::int64_t skipped_steps() const final {
    return scaler_ ? scaler_->skipped_steps() : 0;
  }
  /// The elements this rank steps, in param order.
  const std::vector<model::ParamSegment>& segments() const { return segments_; }
  /// Elements of per-element state (rule state and masters) held here.
  std::int64_t state_elems();

 protected:
  /// Per-element state: one tensor per segment, checkpointed per param as
  /// `<param>.<suffix>`.
  struct ElementState {
    const char* suffix;
    std::vector<tensor::Tensor>* tensors;
  };

  ElementwiseOptimizer(model::ParamRefs params,
                       std::optional<LossScalerOptions> scaler, StepGroup group);
  /// One applied step of the rule over every segment, each grad multiplied
  /// by `grad_scale` first.
  virtual void apply(float grad_scale) = 0;
  /// The rule's per-element state, in checkpoint order.
  virtual std::vector<ElementState> element_state() = 0;
  /// The rule's replicated scalars (counters), checkpointed after the
  /// per-element state.
  virtual NamedState scalar_state() { return {}; }
  /// Zero f32 tensors, one per segment: the param's shape for a whole
  /// param, 1-D otherwise.
  std::vector<tensor::Tensor> segment_tensors() const;
  /// Segment s's fp32 master, or nullptr without mixed precision.
  tensor::Tensor* master(std::size_t s) {
    return master_.empty() ? nullptr : &master_[s];
  }

  model::ParamRefs params_;
  std::vector<model::ParamSegment> segments_;

 private:
  std::vector<ElementState> all_element_state();

  std::optional<DynamicLossScaler> scaler_;
  std::vector<tensor::Tensor> master_;
  dist::Comm world_;
  comm::GradReducer* reducer_;  ///< non-null only when the step is sharded
  std::vector<std::size_t> segment_param_;  ///< segments_[s]'s index in params_
  std::vector<tensor::Tensor*> values_;     ///< &params_[i]->value
  /// state_tensors()' full copies when sharded: [element state][param].
  std::vector<std::vector<tensor::Tensor>> staged_;
};

struct SgdOptions {
  float lr = 0.1f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class Sgd final : public ElementwiseOptimizer {
 public:
  Sgd(model::ParamRefs params, SgdOptions options,
      std::optional<LossScalerOptions> scaler = std::nullopt, StepGroup group = {});
  void set_lr(float lr) override { options_.lr = lr; }
  float lr() const override { return options_.lr; }

 private:
  void apply(float grad_scale) override;
  std::vector<ElementState> element_state() override;

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

class Adam final : public ElementwiseOptimizer {
 public:
  Adam(model::ParamRefs params, AdamOptions options,
       std::optional<LossScalerOptions> scaler = std::nullopt, StepGroup group = {});
  void set_lr(float lr) override { options_.lr = lr; }
  float lr() const override { return options_.lr; }
  std::int64_t steps_taken() const {
    return static_cast<std::int64_t>(step_count_.at({0}));
  }

 private:
  void apply(float grad_scale) override;
  std::vector<ElementState> element_state() override;
  NamedState scalar_state() override;

  AdamOptions options_;
  std::vector<tensor::Tensor> m_, v_;
  // Stored as a 1-element tensor so checkpoints carry the bias-correction
  // counter and resumed training is bit-exact.
  tensor::Tensor step_count_{tensor::Shape{1}};
};

/// Global L2 norm of the grads of one model replica, from the segments
/// this rank steps. `tp`/`pp`/`dp` may be nullptr when that parallel
/// dimension is 1; `dp` sums the data-parallel owners' shares of a sharded
/// step. Every rank returns the same value.
double global_grad_norm(std::span<const model::ParamSegment> segments,
                        const dist::Comm* tp, const dist::Comm* pp,
                        const dist::Comm* dp = nullptr);

/// Scales the segments' grads by max_norm/norm when norm > max_norm.
/// Returns the pre-clip norm.
double clip_grad_norm(std::span<const model::ParamSegment> segments, double max_norm,
                      const dist::Comm* tp, const dist::Comm* pp,
                      const dist::Comm* dp = nullptr);

}  // namespace ptdp::optim
