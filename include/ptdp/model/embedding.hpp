#pragma once

// Vocab-parallel word embedding + replicated learned position embedding,
// with embedding dropout. The vocabulary is sharded across tensor ranks
// (rows [r·V/t, (r+1)·V/t)); each rank looks up the tokens it owns and the
// partial embeddings are summed with an all-reduce (operator g), exactly as
// in Megatron-LM.

#include <span>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/model/config.hpp"
#include "ptdp/model/param.hpp"
#include "ptdp/model/rng_sites.hpp"

namespace ptdp::model {

struct EmbeddingCache {
  std::vector<std::int32_t> tokens;  ///< [s*b], sequence-major
  std::uint64_t mb_tag = 0;          ///< keys the dropout the backward redraws
  std::int64_t s = 0, b = 0;
};

class VocabParallelEmbedding {
 public:
  VocabParallelEmbedding(const GptConfig& config, dist::Comm tp);

  /// tokens: [s*b] sequence-major ids. Returns [s, b, h].
  tensor::Tensor forward(std::span<const std::int32_t> tokens, std::int64_t s,
                         std::int64_t b, EmbeddingCache& cache, std::uint64_t mb_tag);

  /// dy: [s, b, h]. Accumulates word/position grads; there is no input grad.
  void backward(const tensor::Tensor& dy, const EmbeddingCache& cache);

  /// Decode-path lookup: embeds tokens[i] at explicit global position
  /// positions[i] (each < config.seq). Returns [n, h]; per-row arithmetic
  /// is identical to forward()'s row at that position. Requires dropout 0;
  /// nothing is cached (inference only).
  tensor::Tensor forward_at(std::span<const std::int32_t> tokens,
                            std::span<const std::int32_t> positions);

  Param& word() { return word_; }
  Param& position() { return position_; }
  std::int64_t vocab_begin() const { return vocab_begin_; }
  std::int64_t vocab_per_rank() const { return vocab_per_rank_; }
  void collect_params(ParamRefs& out);
  /// Eval-mode switch: 0 disables embedding dropout.
  void set_dropout(float p) { config_.dropout = p; }

 private:
  Rng drop_rng(std::uint64_t mb_tag) const {
    return site_rng(config_.seed, mb_tag, /*layer=*/0, DropSite::kEmbedding);
  }

  GptConfig config_;
  dist::Comm tp_;
  std::int64_t vocab_per_rank_, vocab_begin_;
  Param word_;      ///< [V/t, h] shard of the tied embedding matrix
  Param position_;  ///< [seq, h], replicated
};

}  // namespace ptdp::model
