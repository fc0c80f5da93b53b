#include "ptdp/model/stage.hpp"

#include <algorithm>

#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"

namespace ptdp::model {

using tensor::Tensor;

GptStage::GptStage(const GptConfig& config, const dist::Comm& tp, StageSpec spec)
    : config_(config), spec_(spec) {
  PTDP_CHECK(0 <= spec.layer_begin && spec.layer_begin <= spec.layer_end &&
             spec.layer_end <= config.num_layers)
      << "layer range [" << spec.layer_begin << ", " << spec.layer_end << ")";
  if (spec_.has_embedding) {
    embedding_.emplace(config_, tp);
  }
  layers_.reserve(static_cast<std::size_t>(spec.layer_end - spec.layer_begin));
  for (std::int64_t l = spec.layer_begin; l < spec.layer_end; ++l) {
    layers_.push_back(std::make_unique<TransformerLayer>(config_, l, tp));
  }
  if (spec_.has_head) {
    Param* tied = spec_.has_embedding ? &embedding_->word() : nullptr;
    head_.emplace(config_, tp, tied);
  }
}

StageForward GptStage::forward(const Tensor& input_act, const Microbatch& mb,
                               StageCache& cache) {
  cache.layers.resize(layers_.size());
  Tensor act;
  if (spec_.has_embedding) {
    act = embedding_->forward(mb.tokens, mb.s, mb.b, cache.embedding, mb.tag);
  } else {
    PTDP_CHECK(input_act.defined()) << "non-embedding stage needs an input activation";
    act = input_act;
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    act = layers_[i]->forward(act, cache.layers[i], mb.tag);
  }
  if (spec_.recompute) {
    // Keep only each layer's input (§3.5, checkpoint every layer); the
    // backward pass replays the forward to rebuild intermediate state.
    for (auto& lc : cache.layers) lc.keep_input_only();
  }
  StageForward out;
  if (spec_.has_head) {
    out.loss = head_->forward(act, mb.targets, cache.head, mb.loss_weights);
  } else {
    out.activation = act;
  }
  return out;
}

Tensor GptStage::backward(const Tensor& dy, float loss_scale, StageCache& cache,
                          const Microbatch& mb) {
  PTDP_CHECK_EQ(cache.layers.size(), layers_.size());
  Tensor grad;
  if (spec_.has_head) {
    grad = head_->backward(loss_scale, cache.head);
  } else {
    PTDP_CHECK(dy.defined()) << "non-head stage needs an upstream grad";
    grad = dy;
  }
  for (std::size_t i = layers_.size(); i-- > 0;) {
    // Recompute (§3.5) is a plan transformation: the layer reruns its
    // forward plan from the stashed input before the backward plan, with the
    // same microbatch tag so the counter-based dropout masks replay bitwise.
    grad = spec_.recompute
               ? layers_[i]->backward_recompute(grad, cache.layers[i], mb.tag)
               : layers_[i]->backward(grad, cache.layers[i]);
  }
  if (spec_.has_embedding) {
    embedding_->backward(grad, cache.embedding);
    return Tensor();  // nothing upstream of the first stage
  }
  return grad;
}

ParamRefs GptStage::params() {
  ParamRefs refs;
  if (embedding_) embedding_->collect_params(refs);
  for (auto& layer : layers_) layer->collect_params(refs);
  if (head_) head_->collect_params(refs);
  return refs;
}

void GptStage::zero_grads() {
  for (Param* p : params()) p->zero_grad();
}

tensor::Tensor GptStage::logits(std::span<const std::int32_t> tokens, std::int64_t s,
                                std::int64_t b) {
  PTDP_CHECK(spec_.has_embedding && spec_.has_head)
      << "logits() needs a whole-model stage";
  PTDP_CHECK_EQ(config_.dropout, 0.0f) << "disable dropout for inference";
  EmbeddingCache ecache;
  Tensor act = embedding_->forward(tokens, s, b, ecache, /*mb_tag=*/0);
  // The inference plan decode runs, without a KV store: no backward reads
  // anything, so every value dies at its last forward use.
  const graph::ExecContext ctx{s, b, /*mb_tag=*/0, /*dropout=*/0.0f};
  for (auto& layer : layers_) {
    LayerCache frame;
    frame.begin(layer->decode_plan(), act, ctx.mb_tag);
    act = graph::SequentialExecutor::run_forward(layer->decode_plan(), frame,
                                                 layer->binding(), ctx);
  }
  return head_->full_logits(act);
}

tensor::Tensor GptStage::decode(std::span<const DecodeSeq> seqs,
                                std::span<const std::int32_t> tokens, KvStore& kv) {
  PTDP_CHECK(spec_.has_embedding && spec_.has_head)
      << "decode() needs a whole-model stage";
  PTDP_CHECK_EQ(spec_.layer_begin, 0);
  PTDP_CHECK_EQ(config_.dropout, 0.0f) << "disable dropout for inference";
  PTDP_CHECK(!seqs.empty());

  std::int64_t rows = 0;
  std::vector<std::int32_t> positions(tokens.size());
  for (const DecodeSeq& seq : seqs) {
    for (std::int64_t i = 0; i < seq.len; ++i) {
      positions[static_cast<std::size_t>(rows + i)] =
          static_cast<std::int32_t>(seq.pos + i);
    }
    rows += seq.len;
  }
  PTDP_CHECK_EQ(rows, static_cast<std::int64_t>(tokens.size()));

  // Every layer runs its decode plan over the batch as one [rows, 1, h]
  // microbatch; the attention node splits it back per sequence.
  const std::int64_t h = config_.hidden;
  Tensor act;
  {
    obs::Span span("serve.embed", obs::Cat::kCompute, {{"rows", rows}});
    act = embedding_->forward_at(tokens, positions).view({rows, 1, h});
  }
  graph::ExecContext ctx{rows, 1, /*mb_tag=*/0, /*dropout=*/0.0f, seqs, &kv};
  for (auto& layer : layers_) {
    LayerCache frame;
    frame.begin(layer->decode_plan(), act, ctx.mb_tag);
    act = graph::SequentialExecutor::run_forward(layer->decode_plan(), frame,
                                                 layer->binding(), ctx);
  }

  // Head input: the last new position of each sequence. Row-wise LN and
  // the tied projection make per-row results independent of which rows
  // ride along, so selecting before the head changes no bits.
  const std::int64_t n = static_cast<std::int64_t>(seqs.size());
  obs::Span span("serve.head", obs::Cat::kCompute, {{"rows", n}});
  Tensor last = Tensor::empty({n, 1, h});
  auto src = act.data();
  auto dst = last.data();
  std::int64_t r0 = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    r0 += seqs[static_cast<std::size_t>(i)].len;
    std::copy_n(src.data() + (r0 - 1) * h, static_cast<std::size_t>(h),
                dst.data() + i * h);
  }
  return head_->full_logits(last);  // [n, V]
}

std::int64_t GptStage::kv_heads_local() const {
  PTDP_CHECK(!layers_.empty());
  return layers_.front()->binding().attn->heads_local();
}

std::int64_t GptStage::kv_head_dim() const {
  PTDP_CHECK(!layers_.empty());
  return layers_.front()->binding().attn->head_dim();
}

void GptStage::set_dropout(float p) {
  config_.dropout = p;
  if (embedding_) embedding_->set_dropout(p);
  for (auto& layer : layers_) layer->set_dropout(p);
}

QuantizeReport GptStage::quantize_for_serving(tensor::QuantKind kind,
                                              std::int64_t group_size) {
  PTDP_CHECK_EQ(config_.dropout, 0.0f)
      << "quantize_for_serving is inference-only; set_dropout(0) first";
  // Every linear is quantized once and releases its masters; its forward
  // then routes to the quantized GEMM on its own, so the plans are unchanged.
  QuantizeReport report;
  auto quantize_one = [&](auto* lin) {
    if (lin->quantized()) return;  // quantize-once
    lin->quantize_weight(kind, group_size);
    const quant::QuantizedWeight& qw = lin->quantized_weight();
    report.weight_bytes_f32 += qw.rows * qw.cols * 4;
    report.weight_bytes += qw.quant_bytes();
    ++report.linears;
  };
  for (auto& layer : layers_) {
    const graph::LayerBinding& bind = layer->binding();
    quantize_one(bind.qkv);
    quantize_one(bind.proj);
    quantize_one(bind.fc1);
    quantize_one(bind.fc2);
  }

  if (obs::metrics_on()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("quant.weight_bytes_saved")
        .add(report.weight_bytes_f32 - report.weight_bytes);
    reg.gauge("quant.weight_bytes").set(static_cast<double>(report.weight_bytes));
    reg.gauge("quant.weight_bytes_f32")
        .set(static_cast<double>(report.weight_bytes_f32));
  }
  return report;
}

graph::StagePlan GptStage::decode_plan() const {
  graph::StagePlan sp;
  sp.layer_begin = spec_.layer_begin;
  sp.layer_end = spec_.layer_end;
  sp.has_embedding = spec_.has_embedding;
  sp.has_head = spec_.has_head;
  for (const auto& layer : layers_) sp.layers.push_back(layer->decode_plan());
  return sp;
}

std::vector<quant::NamedQuant> GptStage::quantized_weights() {
  std::vector<quant::NamedQuant> out;
  auto add = [&](auto* lin) {
    if (lin->quantized()) {
      out.push_back({lin->weight_name(), &lin->quantized_weight()});
    }
  };
  for (auto& layer : layers_) {
    const graph::LayerBinding& bind = layer->binding();
    add(bind.qkv);
    add(bind.proj);
    add(bind.fc1);
    add(bind.fc2);
  }
  return out;
}

Param* GptStage::word_embedding_param() {
  if (embedding_) return &embedding_->word();
  if (head_ && head_->owns_word()) return &head_->word();
  return nullptr;
}

}  // namespace ptdp::model
