#include "optim_reference.hpp"

#include <algorithm>
#include <cmath>

namespace ptdp::reference {

using model::Param;
using tensor::Tensor;

namespace {

bool is_sgd(const OptimizerStep::Rule& rule) {
  return std::holds_alternative<optim::SgdOptions>(rule);
}

}  // namespace

void all_reduce_mean(const model::ParamRefs& params, const dist::Comm& data,
                     std::int64_t bucket_elems) {
  const float inv_d = 1.0f / static_cast<float>(data.size());
  std::vector<float> bucket;
  std::vector<Param*> members;
  auto flush = [&] {
    data.all_reduce(std::span<float>(bucket));
    for (float& v : bucket) v *= inv_d;
    std::size_t off = 0;
    for (Param* p : members) {
      auto g = p->grad.data();
      std::copy_n(bucket.begin() + static_cast<std::ptrdiff_t>(off), g.size(), g.begin());
      off += g.size();
    }
    bucket.clear();
    members.clear();
  };
  for (Param* p : params) {
    auto g = p->grad.data();
    if (!bucket.empty() && static_cast<std::int64_t>(bucket.size() + g.size()) > bucket_elems) {
      flush();
    }
    bucket.insert(bucket.end(), g.begin(), g.end());
    members.push_back(p);
  }
  if (!bucket.empty()) flush();
}

OptimizerStep::OptimizerStep(model::ParamRefs params, Rule rule,
                             std::optional<optim::LossScalerOptions> scaler)
    : params_(std::move(params)), rule_(rule), scaler_(scaler) {
  for (Param* p : params_) {
    if (is_sgd(rule_)) {
      if (std::get<optim::SgdOptions>(rule_).momentum != 0.0f) {
        velocity_.emplace_back(p->value.shape());
      }
    } else {
      m_.emplace_back(p->value.shape());
      v_.emplace_back(p->value.shape());
    }
  }
  if (!scaler_) return;
  scale_ = scaler_->initial_scale;
  for (Param* p : params_) {
    if (p->value.dtype() == tensor::DType::kBf16) {
      master_.push_back(p->value.to(tensor::DType::kF32));
      working_.push_back(p->value);
    } else {
      master_.push_back(p->value.clone());
      for (float& v : p->value.data()) v = optim::bf16_round(v);
      working_.push_back(Tensor{});
    }
  }
}

void OptimizerStep::plain_step() {
  if (is_sgd(rule_)) {
    const auto& o = std::get<optim::SgdOptions>(rule_);
    for (std::size_t i = 0; i < params_.size(); ++i) {
      auto w = params_[i]->value.data();
      auto g = params_[i]->grad.data();
      if (o.momentum != 0.0f) {
        auto vel = velocity_[i].data();
        for (std::size_t j = 0; j < w.size(); ++j) {
          float grad = g[j] + o.weight_decay * w[j];
          vel[j] = o.momentum * vel[j] + grad;
          w[j] -= o.lr * vel[j];
        }
      } else {
        for (std::size_t j = 0; j < w.size(); ++j) {
          w[j] -= o.lr * (g[j] + o.weight_decay * w[j]);
        }
      }
    }
    return;
  }
  const auto& o = std::get<optim::AdamOptions>(rule_);
  const double t = static_cast<double>(step_count_.at({0}) += 1.0f);
  const double bc1 = 1.0 - std::pow(o.beta1, t);
  const double bc2 = 1.0 - std::pow(o.beta2, t);
  const float lr_t = o.lr * static_cast<float>(std::sqrt(bc2) / bc1);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto w = params_[i]->value.data();
    auto g = params_[i]->grad.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < w.size(); ++j) {
      const float grad = g[j] + o.weight_decay * w[j];
      m[j] = o.beta1 * m[j] + (1.0f - o.beta1) * grad;
      v[j] = o.beta2 * v[j] + (1.0f - o.beta2) * grad * grad;
      w[j] -= lr_t * m[j] / (std::sqrt(v[j]) + o.eps);
    }
  }
}

void OptimizerStep::step() {
  if (!scaler_) return plain_step();
  const optim::LossScalerOptions& so = *scaler_;
  // Pass 1: overflow scan and scaler update.
  const bool overflow = optim::grads_have_overflow(optim::whole_segments(params_));
  const float inv_scale = 1.0f / scale_;
  if (overflow) {
    scale_ = std::max(so.min_scale, scale_ * so.backoff_factor);
    good_steps_ = 0;
    ++skipped_;
    return;
  }
  if (++good_steps_ >= so.growth_interval) {
    scale_ = std::min(so.max_scale, scale_ * so.growth_factor);
    good_steps_ = 0;
  }
  // Pass 2: unscale the grads in place.
  for (Param* p : params_) {
    for (float& g : p->grad.data()) g *= inv_scale;
  }
  // Pass 3: the plain step on the masters.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (working_[i].defined()) {
      params_[i]->value = master_[i];
    } else {
      params_[i]->value.copy_from(master_[i]);
    }
  }
  plain_step();
  // Pass 4: narrow the masters back into the working weights.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (working_[i].defined()) {
      tensor::cast_into(master_[i], working_[i]);
      params_[i]->value = working_[i];
    } else {
      master_[i].copy_from(params_[i]->value);
      for (float& v : params_[i]->value.data()) v = optim::bf16_round(v);
    }
  }
}

optim::NamedState OptimizerStep::state_tensors() {
  optim::NamedState state;
  for (std::size_t i = 0; i < velocity_.size(); ++i) {
    state.emplace_back(params_[i]->name + ".sgd_velocity", &velocity_[i]);
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    state.emplace_back(params_[i]->name + ".adam_m", &m_[i]);
    state.emplace_back(params_[i]->name + ".adam_v", &v_[i]);
  }
  if (!is_sgd(rule_)) state.emplace_back("adam.step_count", &step_count_);
  for (std::size_t i = 0; i < master_.size(); ++i) {
    state.emplace_back(params_[i]->name + ".fp32_master", &master_[i]);
  }
  return state;
}

}  // namespace ptdp::reference
