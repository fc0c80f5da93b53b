#include "ptdp/zero/sharded_optimizer.hpp"

#include <algorithm>

namespace ptdp::zero {

using model::Param;
using tensor::Tensor;

ZeroShardedAdam::ZeroShardedAdam(model::ParamRefs params, dist::Comm dp,
                                 ZeroAdamOptions options)
    : params_(std::move(params)), dp_(std::move(dp)), options_(options) {
  std::int64_t elems = 0;
  for (Param* p : params_) elems += p->value.numel();
  const std::int64_t d = dp_.size();
  total_elems_ = (elems + d - 1) / d * d;  // pad so shards are equal
  shard_ = total_elems_ / d;
  master_shard_ = Tensor({shard_});
  m_shard_ = Tensor({shard_});
  v_shard_ = Tensor({shard_});
  // Seed the master shard from the (replicated) initial weights.
  Tensor flat({total_elems_});
  flatten_params(flat);
  std::copy_n(flat.data().data() + dp_.rank() * shard_, shard_,
              master_shard_.data().data());
}

void ZeroShardedAdam::flatten_params(Tensor& flat) const {
  auto out = flat.data();
  std::int64_t off = 0;
  for (const Param* p : params_) {
    auto in = p->value.data();
    std::copy(in.begin(), in.end(), out.begin() + off);
    off += p->value.numel();
  }
  std::fill(out.begin() + off, out.end(), 0.0f);
}

void ZeroShardedAdam::unflatten_params(const Tensor& flat) {
  auto in = flat.data();
  std::int64_t off = 0;
  for (Param* p : params_) {
    auto out = p->value.data();
    std::copy_n(in.begin() + off, p->value.numel(), out.begin());
    off += p->value.numel();
  }
}

void ZeroShardedAdam::flatten_grads(Tensor& flat) const {
  auto out = flat.data();
  std::int64_t off = 0;
  for (const Param* p : params_) {
    auto in = p->grad.data();
    std::copy(in.begin(), in.end(), out.begin() + off);
    off += p->grad.numel();
  }
  std::fill(out.begin() + off, out.end(), 0.0f);
}

void ZeroShardedAdam::step() {
  ++step_count_;

  // 1. Reduce-scatter grads: each rank ends with the *sum* of its shard.
  Tensor flat_grads({total_elems_});
  flatten_grads(flat_grads);
  Tensor grad_shard({shard_});
  dp_.reduce_scatter(flat_grads.data(), grad_shard.data());

  // 2. Adam on the local shard only; 1/d turns the sum into the
  //    data-parallel mean.
  const auto& o = options_.adam;
  optim::adam_update(o, optim::adam_step_size(o, static_cast<double>(step_count_)),
                     1.0f / static_cast<float>(dp_.size()), grad_shard.data(),
                     master_shard_.data(), m_shard_.data(), v_shard_.data());

  // 3. All-gather the updated parameters (ZeRO-3's gather-before-use).
  Tensor flat_params({total_elems_});
  dp_.all_gather(std::span<const float>(master_shard_.data()), flat_params.data());
  unflatten_params(flat_params);
}

optim::NamedState ZeroShardedAdam::state_tensors() {
  return {{"zero.master_shard", &master_shard_},
          {"zero.adam_m_shard", &m_shard_},
          {"zero.adam_v_shard", &v_shard_}};
}

std::int64_t ZeroShardedAdam::local_state_bytes() const {
  return 3 * shard_ * static_cast<std::int64_t>(sizeof(float));
}

}  // namespace ptdp::zero
