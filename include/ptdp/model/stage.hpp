#pragma once

// GptStage: the slice of a GPT model one pipeline stage (or interleaved
// model chunk) owns — optionally the input embedding, a contiguous range of
// global transformer layers, and optionally the final-LayerNorm + tied-
// embedding head. A full (serial) model is simply a stage with everything.
//
// Forward/backward are functional over StageCache so a pipeline schedule
// can keep several microbatches in flight, and so activation recomputation
// (§3.5) can rebuild per-layer caches from the stashed layer inputs.

#include <memory>
#include <optional>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/embedding.hpp"
#include "ptdp/model/head.hpp"
#include "ptdp/model/transformer_layer.hpp"
#include "ptdp/quant/quant.hpp"

namespace ptdp::model {

/// One microbatch of token data. `tag` must be unique per microbatch within
/// a batch (it keys dropout masks) and identical across pipeline stages.
struct Microbatch {
  std::vector<std::int32_t> tokens;   ///< [s*b], sequence-major inputs
  std::vector<std::int32_t> targets;  ///< [s*b], labels (next-token for
                                      ///< causal LM, originals for MLM)
  std::vector<float> loss_weights;    ///< [s*b] per-token loss weights, or
                                      ///< empty for the uniform causal-LM loss
  std::int64_t s = 0, b = 0;
  std::uint64_t tag = 0;
};

struct StageSpec {
  bool has_embedding = false;
  bool has_head = false;
  std::int64_t layer_begin = 0;  ///< global layer index, inclusive
  std::int64_t layer_end = 0;    ///< global layer index, exclusive
  bool recompute = false;        ///< activation recomputation per layer
};

struct StageCache {
  EmbeddingCache embedding;
  std::vector<LayerCache> layers;
  HeadCache head;
};

struct StageForward {
  tensor::Tensor activation;  ///< [s, b, h]; undefined when the stage has the head
  float loss = 0.0f;          ///< defined when the stage has the head
};

/// What quantize_for_serving did: how many linears went quantized, and the
/// weight footprint before (f32-equivalent) and after. bytes_f32 / bytes is
/// ~4x for int8, ~7x for q4 (per-group scale + zero-point overhead).
struct QuantizeReport {
  int linears = 0;
  std::int64_t weight_bytes_f32 = 0;
  std::int64_t weight_bytes = 0;
};

class GptStage {
 public:
  GptStage(const GptConfig& config, const dist::Comm& tp, StageSpec spec);

  GptStage(const GptStage&) = delete;
  GptStage& operator=(const GptStage&) = delete;

  /// `input_act` is the activation received from the previous stage
  /// ([s, b, h]); ignored (may be undefined) when this stage embeds.
  StageForward forward(const tensor::Tensor& input_act, const Microbatch& mb,
                       StageCache& cache);

  /// For a head stage pass `loss_scale` (dy ignored/undefined); otherwise
  /// pass the activation grad received from the next stage. Returns the
  /// input-activation grad to send upstream (undefined for an embedding
  /// stage). Parameter grads accumulate.
  tensor::Tensor backward(const tensor::Tensor& dy, float loss_scale,
                          StageCache& cache, const Microbatch& mb);

  const StageSpec& spec() const { return spec_; }
  const GptConfig& config() const { return config_; }

  /// All trainable parameters of this stage, deterministic order.
  ParamRefs params();
  void zero_grads();

  /// The word-embedding Param this stage holds (input side or tied head
  /// copy), or nullptr. Used for the embedding-group grad all-reduce.
  Param* word_embedding_param();

  /// Inference path: full-vocabulary logits [s*b, V] for `tokens`
  /// ([s*b] sequence-major), through every layer's decode plan without a
  /// KV store. Requires a whole-model stage (embedding + head) and dropout
  /// disabled; see model/generate.hpp for the sampling loop built on top.
  tensor::Tensor logits(std::span<const std::int32_t> tokens, std::int64_t s,
                        std::int64_t b);

  /// Incremental inference over a KV cache: `tokens` ([Σ len]) holds the
  /// new tokens of every sequence in `seqs`, concatenated in order. Embeds
  /// them at their global positions, runs every layer's decode plan (the
  /// KV-cached inference LayerPlan, see decode_plan()), and returns
  /// full-vocabulary logits [seqs.size(), V] for the LAST new position of
  /// each sequence — bitwise-identical to the last row of logits() on that
  /// sequence's full prefix (DESIGN.md §16).
  /// Requires a whole-model stage (layer_begin == 0) and dropout == 0.
  tensor::Tensor decode(std::span<const DecodeSeq> seqs,
                        std::span<const std::int32_t> tokens, KvStore& kv);

  /// Per-tensor-rank KV geometry (what a KvStore row holds): local head
  /// count and head dimension of this rank's attention shard.
  std::int64_t kv_heads_local() const;
  std::int64_t kv_head_dim() const;

  /// Eval-mode switch: sets the dropout probability on every submodule
  /// (0 for evaluation/generation, the configured value for training).
  void set_dropout(float p);

  /// The decode plans decode() executes, one per layer — what plan dumps
  /// show.
  graph::StagePlan decode_plan() const;

  /// Serving-only weight quantization (DESIGN.md §17): quantizes every
  /// transformer linear once to `kind` with `group_size` rows per scale
  /// group (clamped per shard by quant::effective_group_size) and releases
  /// the f32 masters. The modules then run the quantized GEMM themselves.
  /// Requires dropout == 0. Records quant.* metrics when the registry is
  /// on. Training stages must never call this — backward through a
  /// quantized linear CHECK-fails.
  QuantizeReport quantize_for_serving(tensor::QuantKind kind,
                                      std::int64_t group_size);

  /// Name -> packed-weight views over every quantized linear, in
  /// deterministic (layer, slot) order — the unit of quantized
  /// checkpointing and weight distribution (ptdp::quant).
  std::vector<quant::NamedQuant> quantized_weights();

 private:
  GptConfig config_;
  StageSpec spec_;
  std::optional<VocabParallelEmbedding> embedding_;
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
  std::optional<GptHead> head_;
};

}  // namespace ptdp::model
