#pragma once

// PtdpEngine: the end-to-end PTD-P trainer. Given a world communicator and
// a (p, t, d) configuration it
//   - builds the Megatron-style process groups,
//   - constructs this rank's v model chunks (tensor-parallel within the
//     tensor group, layer-striped across virtual pipeline stages),
//   - runs each batch through the chosen pipeline schedule (with the §4.1
//     scatter/gather boundary optimization when configured),
//   - all-reduces the tied-embedding grads over the embedding group and
//     delegates the data-parallel gradient reduction to comm::GradReducer,
//     which reduce-scatters per-chunk buckets, overlapped with the pipeline
//     tail,
//   - optionally clips, then steps the optimizer over this rank's share of
//     the elements and all-gathers the weights (bf16 models train with
//     fp32 master weights and dynamic loss scaling),
// preserving strict optimizer semantics: tests verify that every layout
// produces the same weights as serial training, bitwise-independent of the
// scatter/gather and overlap toggles.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ptdp/ckpt/checkpoint.hpp"
#include "ptdp/comm/grad_reducer.hpp"
#include "ptdp/core/parallel_config.hpp"
#include "ptdp/dist/process_groups.hpp"
#include "ptdp/optim/lr_scheduler.hpp"
#include "ptdp/optim/optimizer.hpp"
#include "ptdp/pipeline/executor.hpp"

namespace ptdp::core {

struct EngineOptions {
  model::GptConfig model;
  ParallelConfig parallel;
  std::int64_t global_batch = 8;

  /// With d > 1 either optimizer is sharded over the data group (ZeRO-1/2,
  /// DESIGN.md §9): grads are reduce-scattered, each rank steps and keeps
  /// state for 1/d of the elements, and the updated weights are
  /// all-gathered. Every layout computes the same bits as a replicated
  /// step.
  enum class Opt { kSgd, kAdam };
  Opt optimizer = Opt::kSgd;
  optim::SgdOptions sgd{};
  optim::AdamOptions adam{};
  /// Dynamic loss scaling for bf16 models, which always train with fp32
  /// master weights (optim::ElementwiseOptimizer). Unused for f32 models.
  optim::LossScalerOptions scaler{};
  /// Wire dtype of the data-parallel grad reduction (see
  /// comm::GradReducerOptions::comm_dtype). Independent of model.dtype:
  /// grads are born f32 either way, so f32 reduction stays exact even for
  /// bf16 models, and bf16 reduction is an opt-in bytes-for-rounding trade.
  tensor::DType grad_comm_dtype = tensor::DType::kF32;
  double grad_clip = 0.0;  ///< 0 disables clipping
  /// Data-parallel grad bucketing: each chunk's grads are flattened into
  /// buckets of up to this many elements and reduce-scattered per bucket
  /// (DDP style: fewer, larger messages). Must be > 0; 1 gives every
  /// parameter its own bucket.
  std::int64_t dp_bucket_elems = 1 << 16;
  /// Overlap the data-parallel reduction with the pipeline tail: each model
  /// chunk's bucket reductions launch from the executor's chunk-backward
  /// hook instead of serializing after the batch. Final weights are
  /// bitwise identical either way (see comm::GradReducer).
  bool overlap_grad_reduce = true;
  /// Optional LR schedule (warmup + cosine); overrides the optimizer's
  /// static learning rate when set.
  std::optional<optim::LrScheduleOptions> lr_schedule;
  /// Committed checkpoints retained under the checkpoint dir (newest N);
  /// older manifests and their step directories are garbage-collected after
  /// each successful commit. Must be >= 1; 2 keeps a fallback if the newest
  /// checkpoint is later damaged.
  int ckpt_keep = 2;
};

/// Per-step telemetry reported by PtdpEngine::last_stats().
struct StepStats {
  std::int64_t step = 0;       ///< 0-indexed global step just completed
  float loss = 0.0f;           ///< global mean loss
  double grad_norm = 0.0;      ///< pre-clip norm (0 when clipping is off)
  float lr = 0.0f;             ///< learning rate applied this step
  double step_seconds = 0.0;   ///< wall-clock time of train_step
  /// Wall time this rank spent blocked in communication waits during the
  /// step (from dist::comm_wait_ns deltas), and its complement. busy ≈
  /// compute: in a lockstep pipeline the straggler shows high busy_seconds
  /// while its victims show high comm_wait_seconds — feed these to
  /// ft::HealthMonitor::record_step.
  double comm_wait_seconds = 0.0;
  double busy_seconds = 0.0;
  std::int64_t tokens = 0;     ///< global tokens consumed (B * s)
  double tokens_per_second = 0.0;
  /// Model FLOPs of the whole iteration per the paper's Eq. 3 (includes the
  /// activation-recompute forward; an analytic count, not instruction-level).
  double model_flops = 0.0;
  /// model_flops / step_seconds: cluster-wide achieved FLOP/s. Divide by
  /// n = p*t*d for the per-GPU-rank figure the paper tabulates.
  double achieved_flops_per_second = 0.0;
  double achieved_flops_per_rank = 0.0;
  /// Fraction of data-parallel grad elements whose reduction overlapped the
  /// pipeline (0 when d == 1 / overlap off).
  double grad_reduce_overlap = 0.0;
  /// Dynamic loss scale in effect after this step (1 for f32 models) and
  /// cumulative steps skipped on grad overflow so far.
  float loss_scale = 1.0f;
  std::int64_t overflow_steps = 0;
  /// MEASURED peak tensor bytes live on this rank's thread during the step
  /// (requested bytes, from the ptdp::mem allocator — the empirical
  /// counterpart of the §3.5 analytic activation-memory model). Per-rank:
  /// compare against analytics::activation_bytes_per_layer * layers/p.
  std::int64_t peak_memory_bytes = 0;
  /// Allocator traffic this step on this rank's thread: total acquires and
  /// how many fell through the pool to the heap. Steady-state pooled steps
  /// should show heap_allocs near zero (the >=10x allocation-count win).
  std::uint64_t mem_acquires = 0;
  std::uint64_t mem_heap_allocs = 0;
  /// Fraction of this step's acquires served from the pool's free lists.
  double mem_pool_hit_rate = 0.0;
};

class PtdpEngine {
 public:
  /// Collective: every world rank constructs its engine simultaneously.
  PtdpEngine(dist::Comm& world, EngineOptions options);

  PtdpEngine(const PtdpEngine&) = delete;
  PtdpEngine& operator=(const PtdpEngine&) = delete;

  /// One training step over this data-parallel rank's m microbatches.
  /// Returns the global mean loss (identical on every rank).
  float train_step(std::span<const model::Microbatch> microbatches);

  /// Validation: forward-only global mean loss over this rank's
  /// microbatches with dropout disabled. No parameter or optimizer state
  /// changes; every rank returns the same value. Each data-parallel
  /// replica should pass its own (equal-count) shard of the eval set.
  float evaluate(std::span<const model::Microbatch> microbatches);

  const dist::ProcessGroups& groups() const { return *groups_; }
  const EngineOptions& options() const { return options_; }
  /// All trainable params of this rank's chunks, deterministic order.
  /// Built once at construction (the chunk walk is not repeated per step).
  const model::ParamRefs& params() const { return params_; }
  const pipeline::PipelineExecutor& executor() const { return *executor_; }
  model::GptStage& chunk(int i) { return *chunks_[static_cast<std::size_t>(i)]; }
  int num_chunks() const { return static_cast<int>(chunks_.size()); }
  optim::Optimizer& optimizer() { return *optimizer_; }
  double last_grad_norm() const { return last_grad_norm_; }
  const StepStats& last_stats() const { return stats_; }
  std::int64_t steps_completed() const { return step_counter_; }

  /// Committed checkpoint I/O. save_checkpoint is collective and two-phase:
  /// every rank writes its shard atomically into <dir>/step-<step>/, then
  /// rank 0 publishes a manifest naming the complete set (see
  /// ckpt/manifest.hpp). A crash at any point leaves the previous committed
  /// checkpoint intact. load_checkpoint resolves the newest *valid*
  /// committed checkpoint under `dir` (rank 0 decides, broadcasts the step)
  /// and restores step_counter_; it CHECK-fails if none survives.
  void save_checkpoint(const std::string& dir, std::uint64_t step);
  std::uint64_t load_checkpoint(const std::string& dir);

  /// Loads a *resharded* checkpoint (produced by ckpt::merge_shards /
  /// ckpt::split_shards from a run under a different layout). Matches
  /// tensors by name, so the source layout's ordering doesn't matter.
  /// The current engine must have p == 1 (resharding targets pipeline-less
  /// layouts); every data-parallel replica loads the same shard.
  std::uint64_t load_resharded(const std::string& dir);

 private:
  ckpt::NamedTensors checkpoint_tensors();

  EngineOptions options_;
  std::unique_ptr<dist::ProcessGroups> groups_;
  std::vector<std::unique_ptr<model::GptStage>> chunks_;
  model::ParamRefs params_;  ///< all chunks' params, cached at construction
  std::unique_ptr<pipeline::PipelineExecutor> executor_;
  std::unique_ptr<comm::GradReducer> grad_reducer_;  ///< disabled when d == 1
  std::unique_ptr<optim::Optimizer> optimizer_;
  std::int64_t reported_skipped_ = 0;  ///< overflow steps already counted
  double last_grad_norm_ = 0.0;
  std::optional<optim::LrSchedule> lr_schedule_;
  std::int64_t step_counter_ = 0;
  StepStats stats_;
};

}  // namespace ptdp::core
