#pragma once

// Language-model head: final LayerNorm, logits through the *tied* word
// embedding (column-parallel over the vocabulary), and Megatron's
// vocab-parallel cross-entropy — the loss is computed without ever
// materializing the full [n, V] logits on one rank, using a max all-reduce
// and a sum all-reduce over the tensor group.

#include <optional>
#include <span>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/config.hpp"
#include "ptdp/model/param.hpp"
#include "ptdp/tensor/arena.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::model {

struct HeadCache {
  tensor::Tensor input;              ///< [s, b, h]
  tensor::LayerNormResult ln;        ///< final LN; y narrowed in a bf16 model
  tensor::Tensor exp_shift;          ///< exp(logits − rowmax), [n, V/t]
  std::vector<float> inv_z;          ///< 1 / Σexp per row
  std::vector<std::int32_t> local_targets;  ///< target − vocab_begin, or −1 if unowned
  std::vector<float> row_weight;     ///< per-token loss weight / Σweights
  std::int64_t s = 0, b = 0;
};

class GptHead {
 public:
  /// `tied_word` — when this rank's stage also holds the input embedding
  /// (p == 1, or a one-stage pipeline chunk layout), pass its word Param so
  /// forward/backward read and accumulate into the same tensor. Otherwise
  /// pass nullptr and the head allocates its own identically-initialized
  /// copy whose gradient the engine all-reduces over the embedding group.
  GptHead(const GptConfig& config, dist::Comm tp, Param* tied_word);

  /// x: [s, b, h]; targets: [s*b] sequence-major. Returns the mean loss
  /// (identical on every tensor rank). `loss_weights` (empty = uniform)
  /// weights each token's contribution — the MLM objective passes 1 at
  /// masked positions and 0 elsewhere; the result is the weighted mean.
  float forward(const tensor::Tensor& x, std::span<const std::int32_t> targets,
                HeadCache& cache, std::span<const float> loss_weights = {});

  /// Backprop of `loss_scale * loss`; returns dx [s, b, h].
  tensor::Tensor backward(float loss_scale, const HeadCache& cache);

  /// Inference: full-vocabulary logits for x [s, b, h] — final LayerNorm +
  /// tied-embedding projection, with the vocab shards gathered across the
  /// tensor group. Returns [s*b, V]; no state is cached.
  tensor::Tensor full_logits(const tensor::Tensor& x);

  Param& word() { return *word_; }
  bool owns_word() const { return own_word_.has_value(); }
  void collect_params(ParamRefs& out);

 private:
  GptConfig config_;
  dist::Comm tp_;
  std::int64_t vocab_per_rank_, vocab_begin_;
  Param ln_gamma_, ln_beta_;
  std::optional<Param> own_word_;
  Param* word_;
  /// Planned scratch (DESIGN.md §12/§14): the head's per-call transients
  /// that never escape — kTargetLogit in forward, kDlogits in backward,
  /// kGather in full_logits — reuse the same storage every microbatch
  /// instead of allocating fresh tensors. cache.exp_shift stays a real
  /// allocation: it must survive until backward, per microbatch.
  enum ScratchSlot : std::size_t { kTargetLogit = 0, kDlogits = 1, kGather = 2 };
  tensor::TensorArena scratch_{3};
};

}  // namespace ptdp::model
