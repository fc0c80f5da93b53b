#pragma once

// Trainable parameter: value + gradient accumulator + identity metadata.
//
// Sharding metadata records how this rank's shard relates to the full
// (logical) tensor, which the checkpoint module and the data-parallel
// gradient bucketing need. `replicated_across_tensor_parallel` marks
// parameters (LayerNorms, RowParallelLinear biases, position embeddings)
// whose grads are bitwise-identical on every tensor-parallel rank, so the
// grad-norm computation must not double count them.

#include <cstdint>
#include <string>
#include <vector>

#include "ptdp/runtime/rng.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::model {

struct Param {
  std::string name;            ///< canonical full-model name, e.g. "layer3.mlp.fc1.weight"
  tensor::Tensor value;
  tensor::Tensor grad;         ///< same shape as value, accumulated across microbatches
  bool replicated_across_tensor_parallel = false;

  void zero_grad() { grad.zero(); }
};

/// FNV-1a hash of a parameter name; used to key its init RNG substream so
/// a parameter's full tensor is identical regardless of (p, t, d) layout.
std::uint64_t param_stream(const std::string& name);

/// Generates the *full* (unsharded) tensor for `name` and returns the
/// column range [col_begin, col_end) — the standard path for building a
/// tensor-parallel shard that matches the serial model exactly.
tensor::Tensor init_weight_shard(const std::string& name, std::int64_t rows,
                                 std::int64_t cols, std::int64_t col_begin,
                                 std::int64_t col_end, float stddev,
                                 std::uint64_t seed);

/// Row-range variant (for RowParallelLinear and vocab-parallel embeddings).
tensor::Tensor init_weight_row_shard(const std::string& name, std::int64_t rows,
                                     std::int64_t cols, std::int64_t row_begin,
                                     std::int64_t row_end, float stddev,
                                     std::uint64_t seed);

/// Mutable views over a module tree's parameters, in deterministic order.
using ParamRefs = std::vector<Param*>;

/// Elements [offset, offset + length) of one param's flattened value (and
/// grad): the unit a data-parallel rank owns in a sharded optimizer step.
struct ParamSegment {
  Param* param = nullptr;
  std::int64_t offset = 0;
  std::int64_t length = 0;
};

}  // namespace ptdp::model
