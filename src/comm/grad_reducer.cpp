#include "ptdp/comm/grad_reducer.hpp"

#include <algorithm>
#include <type_traits>

#include "ptdp/obs/trace.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::comm {

using model::Param;
using tensor::Tensor;

namespace {

/// Copies t's elements [off, off + out.size()) into `out` at the wire dtype
/// T. Narrowing f32 storage to bf16 is exact for bf16-valued tensors.
template <class T>
void stage(const Tensor& t, std::size_t off, std::span<T> out) {
  if constexpr (std::is_same_v<T, float>) {
    std::copy_n(t.data().begin() + static_cast<std::ptrdiff_t>(off), out.size(),
                out.begin());
  } else if (t.dtype() == tensor::DType::kBf16) {
    std::copy_n(t.data_bf16().begin() + static_cast<std::ptrdiff_t>(off), out.size(),
                out.begin());
  } else {
    tensor::narrow_bf16(t.data().subspan(off, out.size()), out);
  }
}

/// Writes `in` (wire dtype T) over every element of t.
template <class T>
void unstage(std::span<const T> in, Tensor& t) {
  if constexpr (std::is_same_v<T, float>) {
    std::copy(in.begin(), in.end(), t.data().begin());
  } else if (t.dtype() == tensor::DType::kBf16) {
    std::copy(in.begin(), in.end(), t.data_bf16().begin());
  } else {
    tensor::widen_bf16(in, t.data());
  }
}

}  // namespace

GradReducer::GradReducer(std::vector<model::ParamRefs> chunk_params, dist::Comm data,
                         GradReducerOptions options, std::vector<bool> defer)
    : data_(std::move(data)),
      options_(options),
      defer_(std::move(defer)),
      reduced_(chunk_params.size(), false) {
  if (defer_.empty()) defer_.assign(chunk_params.size(), false);
  PTDP_CHECK_EQ(defer_.size(), chunk_params.size());
  const std::int64_t cap = options_.bucket_elems;
  PTDP_CHECK_GT(cap, 0) << "bucket_elems must be positive (1 = per param)";
  // The bucket plan: greedy per chunk, a param never split across buckets.
  // Ownership follows the ring: this rank owns chunk (rank+1) mod d of
  // every bucket, cut into segments at param boundaries.
  auto close = [&](Bucket& b) {
    if (b.count == 0) return;
    b.own = data_.owned_range(b.len);
    b.seg_first = owned_.size();
    for (std::size_t i = b.first; i < b.first + b.count; ++i) {
      const std::size_t at = param_at_[i];
      const std::size_t n = static_cast<std::size_t>(params_[i]->grad.numel());
      const std::size_t lo = std::max(at, b.own.offset);
      const std::size_t hi = std::min(at + n, b.own.offset + b.own.size);
      if (hi <= lo) continue;
      owned_.push_back({params_[i], static_cast<std::int64_t>(lo - at),
                        static_cast<std::int64_t>(hi - lo)});
      owned_param_.push_back(i);
    }
    b.seg_count = owned_.size() - b.seg_first;
    max_bucket_elems_ = std::max(max_bucket_elems_, b.len);
    buckets_.push_back(b);
  };
  for (const model::ParamRefs& refs : chunk_params) {
    chunk_buckets_.push_back(buckets_.size());
    Bucket b;
    b.first = params_.size();
    for (Param* p : refs) {
      PTDP_CHECK(p != nullptr);
      const std::size_t g = static_cast<std::size_t>(p->grad.numel());
      if (b.len != 0 && static_cast<std::int64_t>(b.len + g) > cap) {
        close(b);
        b = Bucket{};
        b.first = params_.size();
      }
      param_at_.push_back(b.len);
      params_.push_back(p);
      b.len += g;
      ++b.count;
    }
    close(b);
  }
  chunk_buckets_.push_back(buckets_.size());
}

void GradReducer::on_chunk_grads_ready(int chunk) {
  PTDP_CHECK_GE(chunk, 0);
  PTDP_CHECK_LT(chunk, num_chunks());
  if (!enabled() || !options_.overlap) return;
  if (defer_[static_cast<std::size_t>(chunk)]) return;
  PTDP_CHECK(!reduced_[static_cast<std::size_t>(chunk)])
      << "chunk " << chunk << " signalled ready twice in one batch";
  reduce_chunk(static_cast<std::size_t>(chunk), /*overlapped=*/true);
}

void GradReducer::finish() {
  if (!enabled()) return;
  for (std::size_t c = 0; c < reduced_.size(); ++c) {
    if (!reduced_[c]) reduce_chunk(c, /*overlapped=*/false);
  }
  reduced_.assign(reduced_.size(), false);
}

void GradReducer::reduce_bucket(std::span<float> data, dist::Comm::Range own) {
  const float inv_d = 1.0f / static_cast<float>(data_.size());
  if (options_.comm_dtype == tensor::DType::kBf16) {
    // Low-precision reduction: each rank contributes its grads as bf16,
    // the group all-gathers the d payloads (half the wire bytes of an f32
    // ring all-reduce at d = 2), and every rank sums the widened
    // contributions of its owned range in f32 in rank order — a fixed
    // association, so the result is deterministic.
    const std::size_t n = data.size();
    const std::size_t d = static_cast<std::size_t>(data_.size());
    std::span<tensor::bf16_t> wire16 = arena_.get<tensor::bf16_t>(kWire16, n);
    tensor::narrow_bf16(data, wire16);
    std::span<tensor::bf16_t> gathered16 =
        arena_.get<tensor::bf16_t>(kGathered16, n * d);
    data_.all_gather(std::span<const tensor::bf16_t>(wire16), gathered16);
    for (std::size_t j = own.offset; j < own.offset + own.size; ++j) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < d; ++r) {
        acc += tensor::bf16_to_f32(gathered16[r * n + j]);
      }
      data[j] = acc * inv_d;
    }
    return;
  }
  data_.reduce_scatter_inplace(data);
  for (float& v : data.subspan(own.offset, own.size)) v *= inv_d;
}

void GradReducer::reduce_chunk(std::size_t c, bool overlapped) {
  obs::Span span("grad_reduce", obs::Cat::kCollective,
                 {{"chunk", static_cast<std::int64_t>(c)},
                  {"overlapped", overlapped ? 1 : 0}});
  const std::uint64_t before = elems_reduced_;
  reduced_[c] = true;
  // The bucket lives in the planned arena, sized once to the plan's
  // largest bucket.
  std::span<float> buffer = arena_.get<float>(kBucket, max_bucket_elems_);
  for (std::size_t k = chunk_buckets_[c]; k < chunk_buckets_[c + 1]; ++k) {
    const Bucket& b = buckets_[k];
    elems_reduced_ += b.len;
    if (b.count == 1) {
      // A one-param bucket reduces in place in its grad: nothing to
      // flatten or copy back.
      reduce_bucket(params_[b.first]->grad.data(), b.own);
      continue;
    }
    std::span<float> bucket = buffer.first(b.len);
    for (std::size_t i = b.first; i < b.first + b.count; ++i) {
      auto g = params_[i]->grad.data();
      std::copy(g.begin(), g.end(), bucket.begin() + static_cast<std::ptrdiff_t>(param_at_[i]));
    }
    reduce_bucket(bucket, b.own);
    for (std::size_t s = b.seg_first; s < b.seg_first + b.seg_count; ++s) {
      const model::ParamSegment& seg = owned_[s];
      const std::size_t at = param_at_[owned_param_[s]] + static_cast<std::size_t>(seg.offset);
      std::copy_n(bucket.begin() + static_cast<std::ptrdiff_t>(at), seg.length,
                  seg.param->grad.data().begin() + seg.offset);
    }
  }
  if (overlapped) elems_overlapped_ += elems_reduced_ - before;
  span.arg("elems", static_cast<std::int64_t>(elems_reduced_ - before));
}

template <class T>
void GradReducer::gather_bucket(const Bucket& b, std::span<Tensor* const> full,
                                std::span<T> wire) {
  for (std::size_t s = b.seg_first; s < b.seg_first + b.seg_count; ++s) {
    const model::ParamSegment& seg = owned_[s];
    const std::size_t i = owned_param_[s];
    stage(*full[i], static_cast<std::size_t>(seg.offset),
          wire.subspan(param_at_[i] + static_cast<std::size_t>(seg.offset),
                       static_cast<std::size_t>(seg.length)));
  }
  data_.all_gather_inplace(wire);
  for (std::size_t i = b.first; i < b.first + b.count; ++i) {
    unstage(std::span<const T>(wire.subspan(param_at_[i],
                                            static_cast<std::size_t>(full[i]->numel()))),
            *full[i]);
  }
}

void GradReducer::all_gather(std::span<Tensor* const> full, tensor::DType wire) {
  PTDP_CHECK_EQ(full.size(), params_.size());
  if (!enabled()) return;
  for (const Bucket& b : buckets_) {
    Tensor& first = *full[b.first];
    if (b.count == 1 && first.dtype() == wire) {
      // A one-param bucket already at the wire dtype gathers in place.
      if (wire == tensor::DType::kBf16) {
        data_.all_gather_inplace(first.data_bf16());
      } else {
        data_.all_gather_inplace(first.data());
      }
      continue;
    }
    if (wire == tensor::DType::kBf16) {
      gather_bucket(b, full,
                    arena_.get<tensor::bf16_t>(kWire16, max_bucket_elems_).first(b.len));
    } else {
      gather_bucket(b, full, arena_.get<float>(kBucket, max_bucket_elems_).first(b.len));
    }
  }
}

}  // namespace ptdp::comm
