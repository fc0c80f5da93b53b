#pragma once

// GradReducer: the data-parallel gradient reduction plane, extracted from
// the engine's former inline loop so the reduction can overlap the tail of
// the pipeline (DESIGN.md §9).
//
// Grads are reduced per model chunk: consecutive params of one chunk are
// flattened into buckets of up to bucket_elems elements and each bucket is
// ring-all-reduced then scaled by 1/d (DDP-style: fewer, larger messages).
// With overlap on, the executor's chunk-backward hook calls
// on_chunk_grads_ready(chunk) the moment that chunk's last microbatch
// backward finishes, so its reduction runs while the remaining pipeline ops
// are still in flight. finish() reduces whatever is left (everything, when
// overlap is off) and resets for the next batch.
//
// Bucket layout is a pure function of (chunk params, bucket_elems) — never
// of when a chunk is reduced — so overlap on/off produce bitwise-identical
// weights.
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
#include <vector>

#include "ptdp/dist/comm.hpp"
#include "ptdp/mem/arena.hpp"
#include "ptdp/model/param.hpp"
#include "ptdp/tensor/dtype.hpp"

namespace ptdp::comm {

struct GradReducerOptions {
  /// Max elements per all-reduce bucket (> 0). A param larger than the cap
  /// gets a bucket of its own, so 1 reduces one param at a time.
  std::int64_t bucket_elems = 1 << 16;
  /// Reduce each chunk from the executor hook instead of all at finish().
  bool overlap = true;
  /// Wire dtype of the reduction (DESIGN.md §13). kF32 (default): ring
  /// all-reduce in full precision — grads are born f32 from the
  /// fp32-accumulate GEMMs, so nothing is widened or rounded. kBf16:
  /// narrow the bucket to bf16, ring ALL-GATHER the d peers' payloads
  /// (fewer wire bytes than an f32 all-reduce once d >= 2), then sum the
  /// widened contributions in f32 in fixed rank order — deterministic and
  /// identical on every rank, at the cost of one bf16 round per grad.
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
  void finish();

  /// False on a data group of size 1 — every call is then a no-op.
  bool enabled() const { return data_.size() > 1; }
  int num_chunks() const { return static_cast<int>(chunk_params_.size()); }
  const GradReducerOptions& options() const { return options_; }
  /// Grad elements pushed through all-reduce over this reducer's lifetime.
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
  void reduce_chunk(std::size_t c, bool overlapped);
  /// All-reduce-average `data` in place over the data group, in the
  /// configured wire dtype (see GradReducerOptions::comm_dtype).
  void reduce_span(std::span<float> data);

  std::vector<model::ParamRefs> chunk_params_;
  dist::Comm data_;
  GradReducerOptions options_;
  std::vector<bool> defer_;
  std::vector<bool> reduced_;  ///< per-batch: chunk already reduced
  /// Staging slots in the planned arena (DESIGN.md §12/§14): kBucket holds
  /// the flattened f32 bucket, kWire16/kGathered16 the bf16 wire payloads
  /// (comm_dtype == kBf16 only). The arena blocks come from the pooled
  /// allocator and are reused across chunks and iterations, so the
  /// steady-state reduction path makes zero heap allocations AND the
  /// staging bytes show up in the pool's live/peak accounting (the
  /// mem.rank<r>.* gauges) — unlike the std::vector staging this replaces.
  enum Slot : std::size_t { kBucket = 0, kWire16 = 1, kGathered16 = 2 };
  mem::Arena arena_{3};
  /// Largest bucket any chunk produces — a pure function of (chunk params,
  /// bucket_elems), computed once at construction: the bucket *plan*.
  std::size_t max_bucket_elems_ = 0;
  std::vector<model::Param*> members_;
  std::uint64_t elems_reduced_ = 0;
  std::uint64_t elems_overlapped_ = 0;
};

}  // namespace ptdp::comm
