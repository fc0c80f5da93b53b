#pragma once

// ZeRO-style sharded data parallelism (the paper's §5.2 baseline).
//
// Semantics of a ZeRO step on d data-parallel replicas:
//   1. grads are reduce-scattered so each rank holds the (averaged) grad of
//      its 1/d shard of the flattened parameter space (ZeRO-2),
//   2. the optimizer state (Adam moments, fp32 masters) exists only for
//      that shard (ZeRO-1), the shard is updated locally,
//   3. updated parameters are all-gathered back to every replica —
//      the same gather-before-use communication pattern ZeRO-3 performs
//      (here once per step at whole-model granularity; the per-layer
//      prefetch variant changes *when* bytes move, not the semantics, and
//      its cost is modeled in ptdp::sim's ZeRO-3 model).
//
// The shard update is optim::adam_update, the same body optim::Adam runs.
// What tests verify: at d = 1 a step is bitwise equal to optim::Adam; at
// d > 1 the ring reduce-scatter sums the replicas' grads in a different
// order than a replicated average, so weights agree within allclose(1e-5).

#include <memory>

#include "ptdp/dist/comm.hpp"
#include "ptdp/optim/optimizer.hpp"

namespace ptdp::zero {

struct ZeroAdamOptions {
  optim::AdamOptions adam;
};

class ZeroShardedAdam final : public optim::Optimizer {
 public:
  /// `dp` — the data-parallel group over which state is sharded.
  /// Grads must NOT have been all-reduced already; this optimizer owns the
  /// data-parallel reduction (reduce-scatter).
  ZeroShardedAdam(model::ParamRefs params, dist::Comm dp, ZeroAdamOptions options);

  void step() override;
  optim::NamedState state_tensors() override;
  const std::vector<model::Param*>& params() const override { return params_; }
  void set_lr(float lr) override { options_.adam.lr = lr; }
  float lr() const override { return options_.adam.lr; }

  /// Elements of the flattened parameter space this rank owns.
  std::int64_t shard_elems() const { return shard_; }
  /// Bytes of optimizer state held locally (the ZeRO memory win: ~1/d of
  /// what a replicated Adam would hold).
  std::int64_t local_state_bytes() const;

 private:
  model::ParamRefs params_;
  dist::Comm dp_;
  ZeroAdamOptions options_;
  std::int64_t total_elems_ = 0;  ///< padded to a multiple of d
  std::int64_t shard_ = 0;
  tensor::Tensor master_shard_;  ///< fp32 master params, this shard only
  tensor::Tensor m_shard_, v_shard_;
  std::int64_t step_count_ = 0;

  void flatten_params(tensor::Tensor& flat) const;
  void unflatten_params(const tensor::Tensor& flat);
  void flatten_grads(tensor::Tensor& flat) const;
};

}  // namespace ptdp::zero
