#include "ptdp/model/transformer_layer.hpp"

#include "ptdp/graph/builder.hpp"
#include "ptdp/graph/passes.hpp"

namespace ptdp::model {

using tensor::Tensor;

namespace {
Param layernorm_param(std::int64_t layer, const char* suffix, std::int64_t h,
                      float init) {
  const std::string name = "layer" + std::to_string(layer) + "." + suffix;
  return Param{name, Tensor::full({h}, init), Tensor({h}),
               /*replicated_across_tensor_parallel=*/true};
}
}  // namespace

TransformerLayer::TransformerLayer(const GptConfig& config,
                                   std::int64_t global_layer_idx,
                                   const dist::Comm& tp)
    : config_(config),
      layer_idx_(global_layer_idx),
      ln1_gamma_(layernorm_param(global_layer_idx, "ln1.gamma", config.hidden, 1.0f)),
      ln1_beta_(layernorm_param(global_layer_idx, "ln1.beta", config.hidden, 0.0f)),
      ln2_gamma_(layernorm_param(global_layer_idx, "ln2.gamma", config.hidden, 1.0f)),
      ln2_beta_(layernorm_param(global_layer_idx, "ln2.beta", config.hidden, 0.0f)),
      attention_(config, global_layer_idx, tp),
      mlp_(config, global_layer_idx, tp) {
  graph::PlannerOptions opts;
  opts.tp_size = tp.size();
  plan_nodrop_ = graph::build_layer_plan(config, /*with_dropout=*/false, opts);
  plan_drop_ = graph::build_layer_plan(config, /*with_dropout=*/true, opts);
  opts.inference = true;
  plan_decode_ = graph::build_layer_plan(config, /*with_dropout=*/false, opts);

  binding_.config = &config_;
  binding_.layer_idx = layer_idx_;
  auto slot = [this](graph::ParamSlot s) -> Param*& {
    return binding_.params[static_cast<int>(s)];
  };
  slot(graph::ParamSlot::kLn1Gamma) = &ln1_gamma_;
  slot(graph::ParamSlot::kLn1Beta) = &ln1_beta_;
  slot(graph::ParamSlot::kLn2Gamma) = &ln2_gamma_;
  slot(graph::ParamSlot::kLn2Beta) = &ln2_beta_;
  slot(graph::ParamSlot::kProjBias) = &attention_.proj_bias();
  slot(graph::ParamSlot::kFc1Bias) = &mlp_.fc1().bias();
  slot(graph::ParamSlot::kFc2Bias) = &mlp_.fc2_bias();
  binding_.qkv = &attention_.qkv();
  binding_.proj = &attention_.proj();
  binding_.fc1 = &mlp_.fc1();
  binding_.fc2 = &mlp_.fc2();
  binding_.attn = &attention_;
}

Tensor TransformerLayer::forward(const Tensor& x, LayerCache& cache,
                                 std::uint64_t mb_tag) {
  PTDP_CHECK_EQ(x.ndim(), 3);
  const graph::LayerPlan& plan = this->plan(config_.dropout > 0.0f);
  cache.begin(plan, x, mb_tag);
  graph::ExecContext ctx{x.dim(0), x.dim(1), mb_tag, config_.dropout};
  return graph::SequentialExecutor::run_forward(plan, cache, binding_, ctx);
}

Tensor TransformerLayer::backward(const Tensor& dy, LayerCache& cache) {
  PTDP_CHECK(cache.active()) << "backward without a forward frame";
  const graph::LayerPlan& plan = this->plan(cache.with_dropout);
  graph::ExecContext ctx{dy.dim(0), dy.dim(1), cache.mb_tag, config_.dropout};
  return graph::SequentialExecutor::run_backward(plan, cache, binding_, ctx, dy);
}

Tensor TransformerLayer::backward_recompute(const Tensor& dy, LayerCache& cache,
                                            std::uint64_t mb_tag) {
  PTDP_CHECK(cache.active()) << "recompute backward without a frame";
  const graph::LayerPlan& plan = this->plan(cache.with_dropout);
  graph::ExecContext ctx{dy.dim(0), dy.dim(1), mb_tag, config_.dropout};
  return graph::SequentialExecutor::run_recompute(plan, cache, binding_, ctx, dy);
}

void TransformerLayer::set_dropout(float p) {
  config_.dropout = p;
}

void TransformerLayer::collect_params(ParamRefs& out) {
  out.push_back(&ln1_gamma_);
  out.push_back(&ln1_beta_);
  attention_.collect_params(out);
  out.push_back(&ln2_gamma_);
  out.push_back(&ln2_beta_);
  mlp_.collect_params(out);
}

}  // namespace ptdp::model
