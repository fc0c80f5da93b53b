#include "ptdp/optim/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>


// The update loops live here, in a library built without -march=native, so
// the compiler cannot contract their multiply-adds into FMAs and a segment
// of a param rounds exactly as the whole param does.

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

std::vector<model::ParamSegment> whole_segments(const model::ParamRefs& params) {
  std::vector<model::ParamSegment> segments;
  segments.reserve(params.size());
  for (Param* p : params) segments.push_back({p, 0, p->value.numel()});
  return segments;
}

namespace {

std::span<float> grad_of(const model::ParamSegment& seg) {
  return seg.param->grad.data().subspan(static_cast<std::size_t>(seg.offset),
                                        static_cast<std::size_t>(seg.length));
}

}  // namespace

bool grads_have_overflow(std::span<const model::ParamSegment> segments) {
  for (const model::ParamSegment& seg : segments) {
    for (float v : grad_of(seg)) {
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

/// Calls rule(w, store) for one segment: w is its fp32 master (the param's
/// own f32 values without masters), and store(j, w[j]) writes the working
/// value.
template <class Rule>
void with_target(const model::ParamSegment& seg, Tensor* master, Rule&& rule) {
  Tensor& value = seg.param->value;
  const auto off = static_cast<std::size_t>(seg.offset);
  if (master == nullptr) {
    rule(value.data().subspan(off, static_cast<std::size_t>(seg.length)), InPlace{});
  } else if (value.dtype() == tensor::DType::kBf16) {
    rule(master->data(), NarrowInto<tensor::bf16_t>{value.data_bf16().data() + off});
  } else {
    rule(master->data(), NarrowInto<float>{value.data().data() + off});
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
                                           std::optional<LossScalerOptions> scaler,
                                           StepGroup group)
    : params_(std::move(params)),
      world_(std::move(group.world)),
      reducer_(group.reducer != nullptr && group.reducer->enabled() ? group.reducer
                                                                   : nullptr) {
  if (reducer_ == nullptr) {
    segments_ = whole_segments(params_);
  } else {
    PTDP_CHECK(reducer_->params() == params_)
        << "the reducer's params must be the optimizer's, in order";
    segments_ = reducer_->owned();
  }
  // Segments come in param order, so one forward walk indexes them.
  std::size_t i = 0;
  for (const model::ParamSegment& seg : segments_) {
    while (params_[i] != seg.param) ++i;
    segment_param_.push_back(i);
  }
  for (Param* p : params_) values_.push_back(&p->value);
  if (!scaler) return;
  scaler_.emplace(*scaler);
  master_ = segment_tensors();
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const model::ParamSegment& seg = segments_[s];
    const Tensor full = seg.param->value.to(tensor::DType::kF32);
    std::copy_n(full.data().begin() + seg.offset, seg.length, master_[s].data().begin());
  }
  // Every working value starts as its narrowed master — on every rank and
  // for every element, owned or not (a no-op on bf16 storage).
  for (Param* p : params_) {
    if (p->value.dtype() == tensor::DType::kF32) {
      for (float& v : p->value.data()) v = bf16_round(v);
    }
  }
}

std::vector<Tensor> ElementwiseOptimizer::segment_tensors() const {
  std::vector<Tensor> out;
  out.reserve(segments_.size());
  for (const model::ParamSegment& seg : segments_) {
    const bool whole = seg.offset == 0 && seg.length == seg.param->value.numel();
    out.emplace_back(whole ? seg.param->value.shape() : tensor::Shape{seg.length});
  }
  return out;
}

void ElementwiseOptimizer::step() {
  float grad_scale = 1.0f;
  if (scaler_) {
    // One flag for the whole world: a stage or shard must never apply a
    // step another one skips.
    const bool overflow =
        world_.all_reduce_scalar(grads_have_overflow(segments_) ? 1.0f : 0.0f,
                                 dist::ReduceOp::kMax) > 0.0f;
    // Grads were scaled by the CURRENT scale; capture it before update()
    // possibly grows it, or growth steps would unscale by the wrong factor.
    grad_scale = 1.0f / scaler_->scale();
    if (!scaler_->update(overflow)) return;
  }
  apply(grad_scale);
  if (reducer_ != nullptr) {
    reducer_->all_gather(values_,
                         master_.empty() ? tensor::DType::kF32 : tensor::DType::kBf16);
  }
}

std::vector<ElementwiseOptimizer::ElementState> ElementwiseOptimizer::all_element_state() {
  std::vector<ElementState> kinds = element_state();
  if (!master_.empty()) kinds.push_back({"fp32_master", &master_});
  return kinds;
}

std::int64_t ElementwiseOptimizer::state_elems() {
  std::int64_t n = 0;
  for (const ElementState& k : all_element_state()) {
    for (const Tensor& t : *k.tensors) n += t.numel();
  }
  return n;
}

NamedState ElementwiseOptimizer::state_tensors() {
  const std::vector<ElementState> kinds = all_element_state();
  // Unsharded, segment i is param i and its tensors are the live state.
  // Sharded, each kind is staged into full per-param tensors and completed
  // by an f32 all-gather over the data group.
  std::vector<std::vector<Tensor>*> full;
  if (reducer_ == nullptr) {
    for (const ElementState& k : kinds) full.push_back(k.tensors);
  } else {
    staged_.assign(kinds.size(), {});
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      for (Param* p : params_) staged_[k].emplace_back(p->value.shape());
      std::vector<Tensor*> ptrs;
      for (Tensor& t : staged_[k]) ptrs.push_back(&t);
      for (std::size_t s = 0; s < segments_.size(); ++s) {
        const auto src = (*kinds[k].tensors)[s].data();
        std::copy(src.begin(), src.end(),
                  ptrs[segment_param_[s]]->data().begin() + segments_[s].offset);
      }
      reducer_->all_gather(ptrs, tensor::DType::kF32);
      full.push_back(&staged_[k]);
    }
  }
  const std::size_t rule_kinds = kinds.size() - (master_.empty() ? 0 : 1);
  NamedState state;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    for (std::size_t k = 0; k < rule_kinds; ++k) {
      state.emplace_back(params_[i]->name + "." + kinds[k].suffix, &(*full[k])[i]);
    }
  }
  for (auto& scalar : scalar_state()) state.push_back(std::move(scalar));
  if (!master_.empty()) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      state.emplace_back(params_[i]->name + ".fp32_master", &(*full.back())[i]);
    }
  }
  if (scaler_) state.emplace_back("loss_scaler.state", &scaler_->state());
  return state;
}

void ElementwiseOptimizer::commit_state() {
  if (staged_.empty()) return;
  const std::vector<ElementState> kinds = all_element_state();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const auto src = staged_[k][segment_param_[s]].data().subspan(
          static_cast<std::size_t>(segments_[s].offset),
          static_cast<std::size_t>(segments_[s].length));
      std::copy(src.begin(), src.end(), (*kinds[k].tensors)[s].data().begin());
    }
  }
  staged_.clear();
}

Sgd::Sgd(model::ParamRefs params, SgdOptions options,
         std::optional<LossScalerOptions> scaler, StepGroup group)
    : ElementwiseOptimizer(std::move(params), scaler, std::move(group)),
      options_(options) {
  if (options_.momentum != 0.0f) velocity_ = segment_tensors();
}

void Sgd::apply(float grad_scale) {
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const std::span<float> vel =
        velocity_.empty() ? std::span<float>{} : velocity_[s].data();
    with_target(segments_[s], master(s), [&](std::span<float> w, auto store) {
      sgd_loop(options_, grad_scale, grad_of(segments_[s]), w, vel, store);
    });
  }
}

std::vector<ElementwiseOptimizer::ElementState> Sgd::element_state() {
  if (velocity_.empty()) return {};
  return {{"sgd_velocity", &velocity_}};
}

float adam_step_size(const AdamOptions& o, double t) {
  const double bc1 = 1.0 - std::pow(o.beta1, t);
  const double bc2 = 1.0 - std::pow(o.beta2, t);
  return o.lr * static_cast<float>(std::sqrt(bc2) / bc1);
}

Adam::Adam(model::ParamRefs params, AdamOptions options,
           std::optional<LossScalerOptions> scaler, StepGroup group)
    : ElementwiseOptimizer(std::move(params), scaler, std::move(group)),
      options_(options),
      m_(segment_tensors()),
      v_(segment_tensors()) {}

void Adam::apply(float grad_scale) {
  const float step_size = adam_step_size(
      options_, static_cast<double>(step_count_.at({0}) += 1.0f));
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    with_target(segments_[s], master(s), [&](std::span<float> w, auto store) {
      adam_loop(options_, step_size, grad_scale, grad_of(segments_[s]), w,
                m_[s].data(), v_[s].data(), store);
    });
  }
}

std::vector<ElementwiseOptimizer::ElementState> Adam::element_state() {
  return {{"adam_m", &m_}, {"adam_v", &v_}};
}

NamedState Adam::scalar_state() { return {{"adam.step_count", &step_count_}}; }

double global_grad_norm(std::span<const model::ParamSegment> segments,
                        const dist::Comm* tp, const dist::Comm* pp,
                        const dist::Comm* dp) {
  double local = 0.0;
  for (const model::ParamSegment& seg : segments) {
    // Replicated grads (LayerNorms, row-parallel biases, position
    // embeddings) are identical on every tensor rank; count them once.
    if (seg.param->replicated_across_tensor_parallel && tp != nullptr &&
        tp->rank() != 0) {
      continue;
    }
    for (float v : grad_of(seg)) local += static_cast<double>(v) * v;
  }
  if (tp != nullptr) local = tp->all_reduce_scalar(static_cast<float>(local));
  if (pp != nullptr) local = pp->all_reduce_scalar(static_cast<float>(local));
  if (dp != nullptr) local = dp->all_reduce_scalar(static_cast<float>(local));
  return std::sqrt(local);
}

double clip_grad_norm(std::span<const model::ParamSegment> segments, double max_norm,
                      const dist::Comm* tp, const dist::Comm* pp, const dist::Comm* dp) {
  const double norm = global_grad_norm(segments, tp, pp, dp);
  if (norm > max_norm && norm > 0.0) {
    const float factor = static_cast<float>(max_norm / norm);
    for (const model::ParamSegment& seg : segments) {
      for (float& v : grad_of(seg)) v *= factor;
    }
  }
  return norm;
}

}  // namespace ptdp::optim
