#pragma once

// Iteration simulator: replays (pipeline::replay) the *actual* per-rank op
// lists produced by pipeline::build_rank_schedule on a virtual clock, with
// per-virtual-stage compute costs from the cost model, point-to-point
// activation transfers (with or without the §4.1 scatter/gather
// optimization), tensor-parallel all-reduces inside each op, and the
// end-of-batch data-parallel gradient all-reduce + optimizer step. The
// same schedules drive the functional executor, so the performance numbers
// describe exactly the code paths the correctness tests verify.

#include "ptdp/core/analytics.hpp"
#include "ptdp/core/planner.hpp"
#include "ptdp/sim/cost_model.hpp"

namespace ptdp::sim {

struct SimOptions {
  bool fused_kernels = true;
  bool check_memory = true;  ///< report OOM when footprint exceeds capacity
};

struct IterationResult {
  double iteration_seconds = 0;
  double pipeline_makespan = 0;   ///< fwd+bwd phase only
  double bubble_fraction = 0;     ///< measured (makespan − ideal)/ideal
  double per_gpu_flops = 0;       ///< achieved model FLOP/s per GPU
  double aggregate_flops = 0;
  double percent_of_peak = 0;
  double sequences_per_second = 0;
  double p2p_seconds = 0;         ///< pipeline p2p on the critical path proxy
  double tp_comm_seconds = 0;     ///< per-device tensor-parallel comm total
  double dp_comm_seconds = 0;     ///< data-parallel all-reduce
  double memory_bytes = 0;        ///< peak per-GPU footprint
  bool oom = false;
};

/// Simulates one training iteration of `model` under `cfg` on `hw`.
IterationResult simulate_iteration(const ClusterSpec& hw, const model::GptConfig& m,
                                   const core::ParallelConfig& cfg,
                                   std::int64_t global_batch,
                                   const SimOptions& options = {});

/// Time to move one microbatch's activations between consecutive pipeline
/// stages (the quantity the scatter/gather optimization shrinks).
double stage_transfer_time(const ClusterSpec& hw, const model::GptConfig& m,
                           const core::ParallelConfig& cfg);

/// Planner adapter: ranks candidate configurations by simulated iteration
/// time (the "rich" alternative to core::analytic_throughput_model).
core::ThroughputModel make_throughput_model(const ClusterSpec& hw,
                                            const SimOptions& options = {});

}  // namespace ptdp::sim
