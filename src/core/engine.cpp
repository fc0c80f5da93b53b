#include "ptdp/core/engine.hpp"

#include "ptdp/ckpt/manifest.hpp"
#include "ptdp/core/analytics.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/mem/pool.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/stopwatch.hpp"

namespace ptdp::core {

using model::GptStage;
using model::Param;
using model::StageSpec;
using pipeline::virtual_stage;

PtdpEngine::PtdpEngine(dist::Comm& world, EngineOptions options)
    : options_(std::move(options)) {
  const ParallelConfig& cfg = options_.parallel;
  cfg.validate(options_.model, options_.global_batch);
  PTDP_CHECK_EQ(world.size(), cfg.n())
      << "world size " << world.size() << " != p*t*d for " << cfg.str();

  groups_ = std::make_unique<dist::ProcessGroups>(world, cfg.p, cfg.t, cfg.d);

  // Build this rank's v chunks: chunk c is virtual stage c*p + rank with
  // layers striped in virtual-stage order (§2.2.2).
  const int rank = groups_->coord().pipeline;
  const int P = cfg.p * cfg.v;
  const std::int64_t per_stage = options_.model.num_layers / P;
  for (int c = 0; c < cfg.v; ++c) {
    const int vs = virtual_stage(rank, c, cfg.p);
    StageSpec spec;
    spec.has_embedding = vs == 0;
    spec.has_head = vs == P - 1;
    spec.layer_begin = vs * per_stage;
    spec.layer_end = (vs + 1) * per_stage;
    spec.recompute = cfg.recompute;
    chunks_.push_back(std::make_unique<GptStage>(options_.model, groups_->tensor(),
                                                 spec));
  }

  // Flatten the param walk once; every later consumer (grad reduce, clip,
  // checkpoint, optimizer construction) reuses this list.
  for (auto& c : chunks_) {
    model::ParamRefs r = c->params();
    params_.insert(params_.end(), r.begin(), r.end());
  }

  std::vector<GptStage*> raw;
  raw.reserve(chunks_.size());
  for (auto& c : chunks_) raw.push_back(c.get());
  pipeline::ExecutorOptions exec_opts;
  exec_opts.scatter_gather = cfg.scatter_gather;
  // bf16 models transmit bf16 stage boundaries: activations feeding bf16
  // GEMMs lose nothing extra, and p2p volume halves (DESIGN.md §13).
  exec_opts.boundary_dtype = options_.model.dtype;
  executor_ = std::make_unique<pipeline::PipelineExecutor>(
      raw, groups_->pipeline(), groups_->tensor(),
      cfg.schedule_params(options_.global_batch), exec_opts);

  // Data-parallel reduction plane. It also fixes which elements this rank
  // steps (all of them at d = 1), so the optimizer is built on it.
  std::vector<model::ParamRefs> chunk_params;
  std::vector<bool> defer;
  for (auto& c : chunks_) {
    chunk_params.push_back(c->params());
    // Tied-embedding chunks reduce only after the embedding-group sync.
    defer.push_back(cfg.p > 1 && c->word_embedding_param() != nullptr);
  }
  comm::GradReducerOptions reducer_opts;
  reducer_opts.bucket_elems = options_.dp_bucket_elems;
  reducer_opts.overlap = options_.overlap_grad_reduce;
  reducer_opts.comm_dtype = options_.grad_comm_dtype;
  grad_reducer_ = std::make_unique<comm::GradReducer>(
      std::move(chunk_params), groups_->data(), reducer_opts, std::move(defer));
  if (grad_reducer_->enabled()) {
    executor_->set_chunk_backward_hook(
        [this](int chunk) { grad_reducer_->on_chunk_grads_ready(chunk); });
  }

  // bf16 models train with fp32 masters and dynamic loss scaling. With
  // d > 1 the optimizer steps only this rank's share (ZeRO-1/2).
  std::optional<optim::LossScalerOptions> scaler;
  if (options_.model.dtype == tensor::DType::kBf16) scaler = options_.scaler;
  const optim::StepGroup group{groups_->world(), grad_reducer_.get()};
  if (options_.optimizer == EngineOptions::Opt::kSgd) {
    optimizer_ = std::make_unique<optim::Sgd>(params(), options_.sgd, scaler, group);
  } else {
    optimizer_ = std::make_unique<optim::Adam>(params(), options_.adam, scaler, group);
  }
  if (options_.lr_schedule) lr_schedule_.emplace(*options_.lr_schedule);
}

float PtdpEngine::train_step(std::span<const model::Microbatch> microbatches) {
  const Stopwatch stopwatch;
  // Comm-wait snapshot: the delta over this step splits wall time into
  // busy vs blocked-on-peers — the health monitor's straggler signal
  // (DESIGN.md §15). Thread-local, so per-rank by construction.
  const std::int64_t comm_wait_before = dist::comm_wait_ns();
  // Memory-plane snapshot: train_step runs on this rank's thread and
  // tensors are freed where they were allocated, so the thread-local
  // counters give byte-exact per-rank accounting. Resetting the peak here
  // makes peak_memory_bytes the high-water mark *within* this step.
  mem::reset_thread_peak();
  const mem::PoolStats mem_before = mem::thread_stats();
  obs::Span step_span("train_step", obs::Cat::kEngine, {{"step", step_counter_}});
  // Progress marker for failure reporting: if this rank dies mid-step, the
  // World stamps this value into the RankFailure it rethrows.
  dist::note_step(static_cast<std::uint64_t>(step_counter_));
  const ParallelConfig& cfg = options_.parallel;
  if (lr_schedule_) optimizer_->set_lr(lr_schedule_->at(step_counter_));
  for (auto& c : chunks_) c->zero_grads();

  const float extra_scale = optimizer_->loss_scale();
  float loss = executor_->run_batch(microbatches, extra_scale);

  // Tied-embedding grad sync: the first and last stages each hold a copy of
  // the word-embedding matrix and accumulate partial grads; their sum is
  // the true grad (this is what the embedding group exists for).
  if (cfg.p > 1 && groups_->in_embedding_group()) {
    obs::Span span("embedding_sync", obs::Cat::kEngine);
    for (auto& c : chunks_) {
      if (Param* w = c->word_embedding_param()) {
        groups_->embedding().all_reduce(w->grad.data());
      }
    }
  }

  // Data-parallel gradient reduction (mean over replicas). With overlap on,
  // most chunks were already reduced from the executor's backward hooks;
  // finish() covers the rest — notably the deferred tied-embedding chunks,
  // whose grads only became final in the embedding-group sync above.
  if (grad_reducer_->enabled()) {
    obs::Span span("grad_reduce_finish", obs::Cat::kEngine);
    grad_reducer_->finish();
  }

  // Broadcast the loss: only the last pipeline stage computed it.
  if (cfg.p > 1) {
    loss = groups_->pipeline().all_reduce_scalar(loss);  // one non-zero term
  }
  if (cfg.d > 1) {
    loss = groups_->data().all_reduce_scalar(loss) / static_cast<float>(cfg.d);
  }

  if (options_.grad_clip > 0.0) {
    // With mixed precision the grads carry the loss scale; clipping to
    // scale*max_norm applies the same multiplier unscaled clipping would.
    const double max_norm = options_.grad_clip * extra_scale;
    // Each data-parallel rank holds the mean grad of its owned segments
    // only, so their squares are summed over the data group too.
    const dist::Comm* tp = cfg.t > 1 ? &groups_->tensor() : nullptr;
    const dist::Comm* pp = cfg.p > 1 ? &groups_->pipeline() : nullptr;
    const dist::Comm* dp = cfg.d > 1 ? &groups_->data() : nullptr;
    last_grad_norm_ =
        optim::clip_grad_norm(grad_reducer_->owned(), max_norm, tp, pp, dp) /
        extra_scale;
  }

  {
    // With d > 1 this includes the all-gather of the updated weights.
    obs::Span span("optimizer_step", obs::Cat::kEngine);
    optimizer_->step();
  }

  stats_.step = step_counter_++;
  stats_.loss = loss;
  stats_.grad_norm = last_grad_norm_;
  stats_.lr = optimizer_->lr();
  stats_.step_seconds = stopwatch.elapsed_seconds();
  stats_.comm_wait_seconds =
      static_cast<double>(dist::comm_wait_ns() - comm_wait_before) * 1e-9;
  stats_.busy_seconds =
      std::max(0.0, stats_.step_seconds - stats_.comm_wait_seconds);
  stats_.tokens = options_.global_batch * options_.model.seq;
  stats_.tokens_per_second =
      stats_.step_seconds > 0 ? stats_.tokens / stats_.step_seconds : 0.0;
  // Achieved throughput against the paper's Eq. 3 analytic FLOP count.
  stats_.model_flops = flops_per_iteration(options_.model, options_.global_batch);
  stats_.achieved_flops_per_second =
      stats_.step_seconds > 0 ? stats_.model_flops / stats_.step_seconds : 0.0;
  stats_.achieved_flops_per_rank =
      stats_.achieved_flops_per_second / static_cast<double>(cfg.n());
  stats_.grad_reduce_overlap = grad_reducer_->overlap_ratio();
  stats_.loss_scale = optimizer_->loss_scale();
  stats_.overflow_steps = optimizer_->skipped_steps();
  const mem::PoolStats mem_after = mem::thread_stats();
  stats_.peak_memory_bytes = mem_after.peak_bytes;
  stats_.mem_acquires = mem_after.acquires - mem_before.acquires;
  stats_.mem_heap_allocs = mem_after.heap_allocs - mem_before.heap_allocs;
  const std::uint64_t step_hits = mem_after.pool_hits - mem_before.pool_hits;
  stats_.mem_pool_hit_rate =
      stats_.mem_acquires > 0
          ? static_cast<double>(step_hits) /
                static_cast<double>(stats_.mem_acquires)
          : 0.0;
  if (obs::metrics_on()) {
    auto& metrics = obs::MetricsRegistry::instance();
    metrics.histogram("engine.step_ms").observe(stats_.step_seconds * 1e3);
    metrics.counter("engine.steps").add(1);
    metrics.counter("engine.tokens").add(stats_.tokens);
    metrics.gauge("engine.achieved_flops_per_second")
        .set(stats_.achieved_flops_per_second);
    metrics.gauge("engine.grad_reduce_overlap").set(stats_.grad_reduce_overlap);
    if (options_.model.dtype == tensor::DType::kBf16) {
      // Scaler telemetry: the live scale plus overflow-skip increments
      // since the last report (the counter stays a sum of deltas even if
      // metrics were toggled mid-run).
      metrics.gauge("optim.loss_scale").set(stats_.loss_scale);
      metrics.counter("optim.overflow_steps")
          .add(stats_.overflow_steps - reported_skipped_);
      reported_skipped_ = stats_.overflow_steps;
    }
    metrics.counter("mem.acquires").add(
        static_cast<std::int64_t>(stats_.mem_acquires));
    metrics.counter("mem.heap_allocs").add(
        static_cast<std::int64_t>(stats_.mem_heap_allocs));
    const std::string rank_prefix =
        "mem.rank" + std::to_string(groups_->world().rank());
    metrics.gauge(rank_prefix + ".peak_step_bytes")
        .set(static_cast<double>(stats_.peak_memory_bytes));
    metrics.gauge(rank_prefix + ".live_bytes")
        .set(static_cast<double>(mem_after.live_bytes));
    metrics.gauge(rank_prefix + ".pool_hit_rate").set(stats_.mem_pool_hit_rate);
  }
  return loss;
}

float PtdpEngine::evaluate(std::span<const model::Microbatch> microbatches) {
  const ParallelConfig& cfg = options_.parallel;
  for (auto& c : chunks_) c->set_dropout(0.0f);
  float loss = executor_->run_forward_only(microbatches);
  for (auto& c : chunks_) c->set_dropout(options_.model.dropout);
  if (cfg.p > 1) {
    loss = groups_->pipeline().all_reduce_scalar(loss);
  }
  if (cfg.d > 1) {
    loss = groups_->data().all_reduce_scalar(loss) / static_cast<float>(cfg.d);
  }
  return loss;
}

// Collective over the data group when the optimizer is sharded: the state
// is gathered into the replicated format (every data rank writes the same
// full tensors, and a load keeps this rank's owned slice on commit_state).
ckpt::NamedTensors PtdpEngine::checkpoint_tensors() {
  ckpt::NamedTensors tensors;
  for (Param* p : params()) tensors.emplace_back(p->name, &p->value);
  for (auto& [name, t] : optimizer_->state_tensors()) tensors.emplace_back(name, t);
  return tensors;
}

void PtdpEngine::save_checkpoint(const std::string& dir, std::uint64_t step) {
  // Two-phase commit (§5.10 at failure-prone scale, ckpt::commit_checkpoint):
  // a crash anywhere leaves either the previous committed checkpoint or this
  // one — never a torn mix.
  const auto& c = groups_->coord();
  const tensor::DType dtype = options_.model.dtype;
  const ckpt::CommitSpec spec{step, c.pipeline, c.tensor, c.data,
                              tensor::dtype_name(dtype),
                              dtype == tensor::DType::kBf16};
  ckpt::commit_checkpoint(groups_->world(), dir, spec, [&](const std::string& path) {
    const ckpt::SaveResult saved =
        ckpt::save_checkpoint(path, checkpoint_tensors(), {step, 0});
    optimizer_->commit_state();
    return saved;
  });
  if (groups_->world().rank() == 0) ckpt::gc_checkpoints(dir, options_.ckpt_keep);
}

std::uint64_t PtdpEngine::load_resharded(const std::string& dir) {
  PTDP_CHECK_EQ(options_.parallel.p, 1)
      << "resharded checkpoints target pipeline-less layouts";
  const auto& c = groups_->coord();
  const auto meta = ckpt::load_checkpoint_by_name(
      ckpt::shard_path(dir, 0, c.tensor, 0), checkpoint_tensors());
  optimizer_->commit_state();
  // Resume the step counter like load_checkpoint does: the LR schedule and
  // per-step stats must continue from the committed step, not restart at 0.
  step_counter_ = static_cast<std::int64_t>(meta.step);
  return meta.step;
}

std::uint64_t PtdpEngine::load_checkpoint(const std::string& dir) {
  // Rejects (CHECK-fails) if the newest valid checkpoint was written at a
  // different weight dtype than this run — see find_latest_valid_checkpoint.
  const auto resolved = ckpt::resolve_checkpoint(
      groups_->world(), dir, tensor::dtype_name(options_.model.dtype));
  PTDP_CHECK(resolved.has_value()) << "no committed checkpoint under " << dir;
  const std::uint64_t step = *resolved;

  const auto& c = groups_->coord();
  const auto meta = ckpt::load_checkpoint(
      ckpt::shard_path(ckpt::step_dir(dir, step), c.pipeline, c.tensor, c.data),
      checkpoint_tensors());
  optimizer_->commit_state();
  PTDP_CHECK_EQ(meta.step, step) << "shard/manifest step mismatch";
  step_counter_ = static_cast<std::int64_t>(meta.step);
  return meta.step;
}

}  // namespace ptdp::core
