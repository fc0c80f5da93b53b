#pragma once

// GradReducer: the data-parallel gradient reduction plane, extracted from
// the engine's former inline loop so the reduction can overlap the tail of
// the pipeline (DESIGN.md §9).
//
// Grads are reduced per model chunk: consecutive params of one chunk are
// flattened into buckets of up to bucket_elems elements (DDP-style: fewer,
// larger messages), and each bucket is ring-reduce-scattered over the data
// group, so rank r ends owning the mean of chunk (r+1) mod d of every
// bucket — the layout phase 1 of the ring all-reduce leaves
// (dist::Comm::owned_range). Only that owned chunk is scaled by 1/d and
// copied back into the grads (a one-param bucket is reduced in place in its
// grad); owned() lists it as param segments, which is
// all a sharded optimizer step reads (ZeRO-1/2, DESIGN.md §9). After the
// step, all_gather() runs phase 2 over the same buckets to replicate the
// updated weights. At d = 1 a rank owns every element and both calls are
// no-ops.
//
// With overlap on, the executor's chunk-backward hook calls
// on_chunk_grads_ready(chunk) the moment that chunk's last microbatch
// backward finishes, so its reduction runs while the remaining pipeline ops
// are still in flight. finish() reduces whatever is left (everything, when
// overlap is off) and resets for the next batch.
//
// Bucket layout and ownership are a pure function of (chunk params,
// bucket_elems, d) — never of when a chunk is reduced — so overlap on/off
// produce bitwise-identical weights, and each owned element is summed in
// exactly the order the ring all-reduce sums it.
//
// Hook-ordering invariants:
//  - Data-parallel peers hold the same pipeline coordinate and run the same
//    schedule, so hooks fire in the same order on every member of the data
//    group and the per-chunk collectives match up without a barrier.
//  - Chunks marked `defer` (tied-embedding holders when p > 1) are never
//    reduced from the hook: their grads are only final after the
//    embedding-group all-reduce, which itself must wait for the pipeline
//    flush (a first-stage rank's embedding grads finalize on its last
//    scheduled op). The engine runs the embedding sync after run_batch and
//    then finish() picks these chunks up — preserving the serial
//    sum-then-average order bitwise.

#include <cstdint>
#include <span>
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/mem/arena.hpp"
#include "ptdp/model/param.hpp"
#include "ptdp/tensor/dtype.hpp"

namespace ptdp::comm {

struct GradReducerOptions {
  /// Max elements per bucket (> 0). A param larger than the cap gets a
  /// bucket of its own, so 1 reduces one param at a time.
  std::int64_t bucket_elems = 1 << 16;
  /// Reduce each chunk from the executor hook instead of all at finish().
  bool overlap = true;
  /// Wire dtype of the reduction (DESIGN.md §13). kF32 (default): ring
  /// reduce-scatter in full precision — grads are born f32 from the
  /// fp32-accumulate GEMMs, so nothing is widened or rounded. kBf16:
  /// narrow the bucket to bf16, ring ALL-GATHER the d peers' payloads, then
  /// sum the widened contributions of the owned chunk in f32 in fixed rank
  /// order — deterministic and identical on every rank, at the cost of one
  /// bf16 round per grad.
  tensor::DType comm_dtype = tensor::DType::kF32;
};

class GradReducer {
 public:
  /// `chunk_params[c]` — the trainable params of model chunk c, in the
  /// chunk's deterministic order. `defer[c]` (optional, default none) marks
  /// chunks that must wait for finish() even with overlap on.
  GradReducer(std::vector<model::ParamRefs> chunk_params, dist::Comm data,
              GradReducerOptions options, std::vector<bool> defer = {});

  GradReducer(const GradReducer&) = delete;
  GradReducer& operator=(const GradReducer&) = delete;

  /// Executor hook entry: chunk c's parameter grads are final for this
  /// batch. Reduces the chunk immediately when overlap is on and the chunk
  /// is not deferred; a no-op otherwise (finish() will cover it).
  void on_chunk_grads_ready(int chunk);

  /// Reduces every chunk not already reduced this batch, then resets the
  /// per-batch state. Call once per train step, after any grad fix-ups that
  /// must precede data-parallel averaging (the embedding-group sync).
  /// Afterwards the owned() elements of every grad hold the data-parallel
  /// mean; the other elements hold partial sums and are not to be read.
  void finish();

  /// This rank's elements — chunk (rank+1) mod d of every bucket — as
  /// param segments in params() order. Whole params at d = 1.
  const std::vector<model::ParamSegment>& owned() const { return owned_; }
  /// Every chunk's params, concatenated in chunk order.
  const model::ParamRefs& params() const { return params_; }

  /// Collective over the data group (phase 2 of the ring, per bucket):
  /// completes `full[i]`, a tensor shaped like params()[i], on every rank
  /// from each rank's owned() elements. The payload travels as `wire`:
  /// kBf16 carries bf16 storage as is and narrows f32 storage (exact for
  /// bf16-valued tensors); kF32 requires f32 storage. Stages through the
  /// reducer's arena slots; a no-op at d = 1.
  void all_gather(std::span<tensor::Tensor* const> full, tensor::DType wire);

  /// False on a data group of size 1 — every collective call is then a
  /// no-op.
  bool enabled() const { return data_.size() > 1; }
  int num_chunks() const { return static_cast<int>(chunk_buckets_.size()) - 1; }
  const GradReducerOptions& options() const { return options_; }
  /// Grad elements pushed through the reduction over this reducer's
  /// lifetime.
  std::uint64_t elems_reduced() const { return elems_reduced_; }
  /// Of those, elements reduced from the executor hook — i.e. while the
  /// pipeline was still working, overlapping communication with compute.
  std::uint64_t elems_overlapped() const { return elems_overlapped_; }
  /// Fraction of reduced elements that overlapped pipeline compute (0 when
  /// nothing has been reduced; 0 with overlap off or everything deferred).
  double overlap_ratio() const {
    return elems_reduced_ > 0 ? static_cast<double>(elems_overlapped_) /
                                    static_cast<double>(elems_reduced_)
                              : 0.0;
  }

 private:
  /// params_[first, first + count) flattened into `len` elements; this
  /// rank owns [own.offset, own.offset + own.size) of them, listed as
  /// owned_[seg_first, seg_first + seg_count).
  struct Bucket {
    std::size_t first = 0, count = 0, len = 0;
    dist::Comm::Range own;
    std::size_t seg_first = 0, seg_count = 0;
  };

  void reduce_chunk(std::size_t c, bool overlapped);
  /// Sums `data` over the data group in the configured wire dtype (see
  /// GradReducerOptions::comm_dtype) and scales the owned range by 1/d.
  void reduce_bucket(std::span<float> data, dist::Comm::Range own);
  template <class T>
  void gather_bucket(const Bucket& b, std::span<tensor::Tensor* const> full,
                     std::span<T> wire);

  dist::Comm data_;
  GradReducerOptions options_;
  std::vector<bool> defer_;
  std::vector<bool> reduced_;  ///< per-batch: chunk already reduced
  /// The bucket plan, a pure function of (chunk params, bucket_elems, d)
  /// computed once at construction. Chunk c's buckets are
  /// buckets_[chunk_buckets_[c], chunk_buckets_[c + 1]).
  std::vector<Bucket> buckets_;
  std::vector<std::size_t> chunk_buckets_;
  model::ParamRefs params_;
  std::vector<std::size_t> param_at_;  ///< params_[i]'s offset in its bucket
  std::vector<model::ParamSegment> owned_;
  std::vector<std::size_t> owned_param_;  ///< owned_[s]'s index in params_
  /// Staging slots in the planned arena (DESIGN.md §12/§14): kBucket holds
  /// a flattened f32 bucket, kWire16/kGathered16 the bf16 payloads (the
  /// bf16 grad wire and the bf16 weight gather). The arena blocks come
  /// from the pooled allocator and are reused across buckets and
  /// iterations, so the steady state makes zero heap allocations AND the
  /// staging bytes show up in the pool's live/peak accounting.
  enum Slot : std::size_t { kBucket = 0, kWire16 = 1, kGathered16 = 2 };
  mem::Arena arena_{3};
  std::size_t max_bucket_elems_ = 0;  ///< largest bucket of the plan
  std::uint64_t elems_reduced_ = 0;
  std::uint64_t elems_overlapped_ = 0;
};

}  // namespace ptdp::comm
