#include "ptdp/optim/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "ptdp/tensor/ops.hpp"

// The update loops live here, in a library built without -march=native, so
// the compiler cannot contract their multiply-adds into FMAs and every
// optimizer that runs them (including ZeRO's sharded Adam) rounds alike.

namespace ptdp::optim {

using model::Param;
using tensor::Tensor;

float bf16_round(float v) {
  return tensor::bf16_to_f32(tensor::f32_to_bf16(v));
}

DynamicLossScaler::DynamicLossScaler(LossScalerOptions options)
    : options_(options) {
  state_.at({0}) = options.initial_scale;
}

bool DynamicLossScaler::update(bool found_overflow) {
  auto s = state_.data();  // {scale, good steps, skipped steps}
  if (found_overflow) {
    s[0] = std::max(options_.min_scale, s[0] * options_.backoff_factor);
    s[1] = 0.0f;
    s[2] += 1.0f;
    return false;
  }
  if (++s[1] >= static_cast<float>(options_.growth_interval)) {
    s[0] = std::min(options_.max_scale, s[0] * options_.growth_factor);
    s[1] = 0.0f;
  }
  return true;
}

bool grads_have_overflow(const model::ParamRefs& params) {
  for (const Param* p : params) {
    for (float v : p->grad.data()) {
      if (!std::isfinite(v)) return true;
    }
  }
  return false;
}

namespace {

/// Without masters the rule updates the param's own f32 value: nothing to
/// store afterwards.
struct InPlace {
  void operator()(std::size_t, float) const {}
};

/// The one narrowing rule: the working value is the round-to-nearest-even
/// bf16 of the master, stored at the working tensor's dtype.
template <class T>
struct NarrowInto {
  T* out;
  void operator()(std::size_t j, float w) const {
    if constexpr (std::is_same_v<T, float>) {
      out[j] = bf16_round(w);
    } else {
      out[j] = tensor::f32_to_bf16(w);
    }
  }
};

/// Calls rule(w, store) for one param: w is its fp32 master (its own f32
/// value without masters), and store(j, w[j]) writes the working value.
template <class Rule>
void with_target(Param& p, Tensor* master, Rule&& rule) {
  if (master == nullptr) {
    rule(p.value.data(), InPlace{});
  } else if (p.value.dtype() == tensor::DType::kBf16) {
    rule(master->data(), NarrowInto<tensor::bf16_t>{p.value.data_bf16().data()});
  } else {
    rule(master->data(), NarrowInto<float>{p.value.data().data()});
  }
}

template <class Store>
void sgd_loop(const SgdOptions& o, float grad_scale, std::span<const float> g,
              std::span<float> w, std::span<float> vel, Store store) {
  if (vel.empty()) {
    for (std::size_t j = 0; j < w.size(); ++j) {
      w[j] -= o.lr * (g[j] * grad_scale + o.weight_decay * w[j]);
      store(j, w[j]);
    }
    return;
  }
  for (std::size_t j = 0; j < w.size(); ++j) {
    const float grad = g[j] * grad_scale + o.weight_decay * w[j];
    vel[j] = o.momentum * vel[j] + grad;
    w[j] -= o.lr * vel[j];
    store(j, w[j]);
  }
}

template <class Store>
void adam_loop(const AdamOptions& o, float step_size, float grad_scale,
               std::span<const float> g, std::span<float> w, std::span<float> m,
               std::span<float> v, Store store) {
  for (std::size_t j = 0; j < w.size(); ++j) {
    const float grad = g[j] * grad_scale + o.weight_decay * w[j];
    m[j] = o.beta1 * m[j] + (1.0f - o.beta1) * grad;
    v[j] = o.beta2 * v[j] + (1.0f - o.beta2) * grad * grad;
    w[j] -= step_size * m[j] / (std::sqrt(v[j]) + o.eps);
    store(j, w[j]);
  }
}

}  // namespace

ElementwiseOptimizer::ElementwiseOptimizer(model::ParamRefs params,
                                           std::optional<LossScalerOptions> scaler)
    : params_(std::move(params)) {
  if (!scaler) return;
  scaler_.emplace(*scaler);
  master_.reserve(params_.size());
  for (Param* p : params_) {
    master_.push_back(p->value.to(tensor::DType::kF32));
    // The working value starts as the narrowed master (a no-op on bf16
    // storage).
    with_target(*p, &master_.back(), [](std::span<float> w, auto store) {
      for (std::size_t j = 0; j < w.size(); ++j) store(j, w[j]);
    });
  }
}

void ElementwiseOptimizer::step() {
  float grad_scale = 1.0f;
  if (scaler_) {
    const bool overflow = grads_have_overflow(params_);
    // Grads were scaled by the CURRENT scale; capture it before update()
    // possibly grows it, or growth steps would unscale by the wrong factor.
    grad_scale = 1.0f / scaler_->scale();
    if (!scaler_->update(overflow)) return;
  }
  apply(grad_scale);
}

NamedState ElementwiseOptimizer::state_tensors() {
  NamedState state = rule_state();
  for (std::size_t i = 0; i < master_.size(); ++i) {
    state.emplace_back(params_[i]->name + ".fp32_master", &master_[i]);
  }
  if (scaler_) state.emplace_back("loss_scaler.state", &scaler_->state());
  return state;
}

Sgd::Sgd(model::ParamRefs params, SgdOptions options,
         std::optional<LossScalerOptions> scaler)
    : ElementwiseOptimizer(std::move(params), scaler), options_(options) {
  if (options_.momentum != 0.0f) {
    velocity_.reserve(params_.size());
    for (Param* p : params_) velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::apply(float grad_scale) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    const std::span<float> vel =
        velocity_.empty() ? std::span<float>{} : velocity_[i].data();
    with_target(p, master(i), [&](std::span<float> w, auto store) {
      sgd_loop(options_, grad_scale, p.grad.data(), w, vel, store);
    });
  }
}

NamedState Sgd::rule_state() {
  NamedState state;
  for (std::size_t i = 0; i < velocity_.size(); ++i) {
    state.emplace_back(params_[i]->name + ".sgd_velocity", &velocity_[i]);
  }
  return state;
}

float adam_step_size(const AdamOptions& o, double t) {
  const double bc1 = 1.0 - std::pow(o.beta1, t);
  const double bc2 = 1.0 - std::pow(o.beta2, t);
  return o.lr * static_cast<float>(std::sqrt(bc2) / bc1);
}

void adam_update(const AdamOptions& o, float step_size, float grad_scale,
                 std::span<const float> g, std::span<float> w,
                 std::span<float> m, std::span<float> v) {
  adam_loop(o, step_size, grad_scale, g, w, m, v, InPlace{});
}

Adam::Adam(model::ParamRefs params, AdamOptions options,
           std::optional<LossScalerOptions> scaler)
    : ElementwiseOptimizer(std::move(params), scaler), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::apply(float grad_scale) {
  const float step_size = adam_step_size(
      options_, static_cast<double>(step_count_.at({0}) += 1.0f));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    with_target(p, master(i), [&](std::span<float> w, auto store) {
      adam_loop(options_, step_size, grad_scale, p.grad.data(), w, m_[i].data(),
                v_[i].data(), store);
    });
  }
}

NamedState Adam::rule_state() {
  NamedState state;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    state.emplace_back(params_[i]->name + ".adam_m", &m_[i]);
    state.emplace_back(params_[i]->name + ".adam_v", &v_[i]);
  }
  state.emplace_back("adam.step_count", &step_count_);
  return state;
}

double global_grad_norm(const model::ParamRefs& params, const dist::Comm* tp,
                        const dist::Comm* pp) {
  double local = 0.0;
  for (const Param* p : params) {
    // Replicated grads (LayerNorms, row-parallel biases, position
    // embeddings) are identical on every tensor rank; count them once.
    if (p->replicated_across_tensor_parallel && tp != nullptr && tp->rank() != 0) {
      continue;
    }
    local += tensor::squared_norm(p->grad);
  }
  if (tp != nullptr) local = tp->all_reduce_scalar(static_cast<float>(local));
  if (pp != nullptr) local = pp->all_reduce_scalar(static_cast<float>(local));
  return std::sqrt(local);
}

double clip_grad_norm(const model::ParamRefs& params, double max_norm,
                      const dist::Comm* tp, const dist::Comm* pp) {
  const double norm = global_grad_norm(params, tp, pp);
  if (norm > max_norm && norm > 0.0) {
    const float factor = static_cast<float>(max_norm / norm);
    for (Param* p : params) tensor::scale_(p->grad, factor);
  }
  return norm;
}

}  // namespace ptdp::optim
