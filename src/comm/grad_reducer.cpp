#include "ptdp/comm/grad_reducer.hpp"

#include <algorithm>

#include "ptdp/obs/trace.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::comm {

using model::Param;

GradReducer::GradReducer(std::vector<model::ParamRefs> chunk_params, dist::Comm data,
                         GradReducerOptions options, std::vector<bool> defer)
    : chunk_params_(std::move(chunk_params)),
      data_(std::move(data)),
      options_(options),
      defer_(std::move(defer)),
      reduced_(chunk_params_.size(), false) {
  if (defer_.empty()) defer_.assign(chunk_params_.size(), false);
  PTDP_CHECK_EQ(defer_.size(), chunk_params_.size());
  // The bucket plan: walk each chunk's bucketing once to size the arena's
  // bucket slot at the largest flush any chunk ever needs. Depends only on
  // (chunk params, bucket_elems) — the same pure function reduce_chunk
  // replays, so the slot never regrows after construction.
  const std::int64_t cap = options_.bucket_elems;
  PTDP_CHECK_GT(cap, 0) << "bucket_elems must be positive (1 = per param)";
  for (const model::ParamRefs& refs : chunk_params_) {
    std::int64_t cur = 0;
    for (const Param* p : refs) {
      PTDP_CHECK(p != nullptr);
      const std::int64_t g = p->grad.numel();
      if (cur != 0 && cur + g > cap) cur = 0;
      cur += g;
      max_bucket_elems_ =
          std::max(max_bucket_elems_, static_cast<std::size_t>(cur));
    }
  }
}

void GradReducer::on_chunk_grads_ready(int chunk) {
  PTDP_CHECK_GE(chunk, 0);
  PTDP_CHECK_LT(static_cast<std::size_t>(chunk), chunk_params_.size());
  if (!enabled() || !options_.overlap) return;
  if (defer_[static_cast<std::size_t>(chunk)]) return;
  PTDP_CHECK(!reduced_[static_cast<std::size_t>(chunk)])
      << "chunk " << chunk << " signalled ready twice in one batch";
  reduce_chunk(static_cast<std::size_t>(chunk), /*overlapped=*/true);
}

void GradReducer::finish() {
  if (!enabled()) return;
  for (std::size_t c = 0; c < chunk_params_.size(); ++c) {
    if (!reduced_[c]) reduce_chunk(c, /*overlapped=*/false);
  }
  reduced_.assign(chunk_params_.size(), false);
}

void GradReducer::reduce_span(std::span<float> data) {
  const float inv_d = 1.0f / static_cast<float>(data_.size());
  if (options_.comm_dtype == tensor::DType::kBf16) {
    // Low-precision reduction: each rank contributes its grads as bf16,
    // the group all-gathers the d payloads (half the wire bytes of an f32
    // ring all-reduce at d = 2), and every rank sums the widened
    // contributions in f32 in rank order — a fixed association, so the
    // result is deterministic and identical on all ranks.
    const std::size_t n = data.size();
    const std::size_t d = static_cast<std::size_t>(data_.size());
    std::span<tensor::bf16_t> wire16 =
        arena_.get<tensor::bf16_t>(kWire16, n);
    tensor::narrow_bf16(data, wire16);
    std::span<tensor::bf16_t> gathered16 =
        arena_.get<tensor::bf16_t>(kGathered16, n * d);
    data_.all_gather(std::span<const tensor::bf16_t>(wire16), gathered16);
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < d; ++r) {
        acc += tensor::bf16_to_f32(gathered16[r * n + j]);
      }
      data[j] = acc * inv_d;
    }
    return;
  }
  data_.all_reduce(data);
  for (float& v : data) v *= inv_d;
}

void GradReducer::reduce_chunk(std::size_t c, bool overlapped) {
  obs::Span span("grad_reduce", obs::Cat::kCollective,
                 {{"chunk", static_cast<std::int64_t>(c)},
                  {"overlapped", overlapped ? 1 : 0}});
  const std::uint64_t before = elems_reduced_;
  const std::int64_t cap = options_.bucket_elems;
  reduced_[c] = true;
  // Bucket boundaries depend only on the chunk's param order and cap, never
  // on reduction timing — the bitwise overlap-on/off guarantee. The bucket
  // lives in the planned arena, sized once at construction to the largest
  // flush of any chunk (max_bucket_elems_).
  std::span<float> bucket = arena_.get<float>(kBucket, max_bucket_elems_);
  std::vector<Param*>& members = members_;
  std::size_t len = 0;
  members.clear();
  auto flush = [&] {
    if (len == 0) return;
    reduce_span(bucket.first(len));
    elems_reduced_ += len;
    std::size_t off = 0;
    for (Param* p : members) {
      auto g = p->grad.data();
      for (std::size_t j = 0; j < g.size(); ++j) g[j] = bucket[off + j];
      off += g.size();
    }
    len = 0;
    members.clear();
  };
  for (Param* p : chunk_params_[c]) {
    auto g = p->grad.data();
    if (len != 0 && static_cast<std::int64_t>(len + g.size()) > cap) {
      flush();
    }
    PTDP_CHECK_LE(len + g.size(), bucket.size())
        << "bucket plan undersized for chunk " << c;
    std::copy(g.begin(), g.end(), bucket.begin() + static_cast<std::ptrdiff_t>(len));
    len += g.size();
    members.push_back(p);
  }
  flush();
  if (overlapped) elems_overlapped_ += elems_reduced_ - before;
  span.arg("elems", static_cast<std::int64_t>(elems_reduced_ - before));
}

}  // namespace ptdp::comm
