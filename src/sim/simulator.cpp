#include "ptdp/sim/simulator.hpp"

#include <algorithm>
#include <vector>

#include "ptdp/pipeline/schedule.hpp"

namespace ptdp::sim {

namespace {
constexpr double kFp16 = 2.0;
constexpr double kFp32 = 4.0;
}  // namespace

double stage_transfer_time(const ClusterSpec& hw, const model::GptConfig& m,
                           const core::ParallelConfig& cfg) {
  const double bytes =
      static_cast<double>(cfg.b) * m.seq * m.hidden * kFp16;
  // Consecutive pipeline stages are on different nodes once a stage's
  // (t·d) block fills a node — the standard large-model regime.
  const bool cross_node =
      static_cast<std::int64_t>(cfg.t) * cfg.d >= hw.gpus_per_node;
  if (!cfg.scatter_gather || cfg.t == 1) {
    // Every tensor rank redundantly sends the full tensor on its own link.
    // In 1F1B steady state the forward and backward tensors are in flight
    // simultaneously in both directions, so cross-node links see ~2x
    // contention that the (1/t-sized) scatter/gather transfers avoid.
    const double contention = cross_node && cfg.t > 1 ? 2.0 : 1.0;
    return p2p_time(hw, bytes * contention, cross_node);
  }
  // §4.1: send 1/t of the tensor per IB link, then all-gather over NVLink.
  return p2p_time(hw, bytes / cfg.t, cross_node) +
         ring_all_gather_time(hw, bytes, cfg.t, /*within_node=*/true);
}

IterationResult simulate_iteration(const ClusterSpec& hw, const model::GptConfig& m,
                                   const core::ParallelConfig& cfg,
                                   std::int64_t global_batch,
                                   const SimOptions& options) {
  cfg.validate(m, global_batch);
  const pipeline::ScheduleParams sp = cfg.schedule_params(global_batch);
  const int P = pipeline::num_virtual_stages(sp);
  const std::int64_t layers_per_stage = m.num_layers / P;

  // Per-virtual-stage costs (stage 0 embeds, stage P-1 owns the head).
  CostOptions cost_opts{options.fused_kernels};
  std::vector<ChunkCost> costs(static_cast<std::size_t>(P));
  for (int vs = 0; vs < P; ++vs) {
    costs[static_cast<std::size_t>(vs)] =
        chunk_cost(hw, m, cfg, layers_per_stage, vs == 0, vs == P - 1, cost_opts);
  }
  const double transfer = cfg.p > 1 ? stage_transfer_time(hw, m, cfg) : 0.0;

  // ---- replay of the actual schedules ----
  // Receiving a stage boundary tensor occupies the GPU (NCCL p2p and the
  // scatter/gather's NVLink all-gather both run on SMs), so the transfer is
  // serialized into the dependent op's duration — this is what makes the
  // §4.1 optimization worth ~10% end to end.
  auto lanes = pipeline::schedule_lanes(sp, [&](const pipeline::Op& op, int vs) {
    const ChunkCost& c = costs[static_cast<std::size_t>(vs)];
    if (op.kind == pipeline::Op::Kind::kForward) {
      return c.fwd() + (vs > 0 ? transfer : 0.0);
    }
    double duration = vs == P - 1 ? c.bwd() : c.bwd() + transfer;
    // §3.5: recomputation replays the forward before the backward.
    if (cfg.recompute) duration += c.fwd_compute;
    return duration;
  });
  const pipeline::ReplayResult replayed = pipeline::replay(lanes, P);
  PTDP_CHECK(replayed.complete) << "simulated schedule deadlocked";
  const double makespan = replayed.makespan;

  // Ideal per-rank compute time (rank 0's chunk set; ranks are symmetric up
  // to embedding/head extras — take the max over ranks for the bubble).
  double ideal = 0.0;
  for (int r = 0; r < sp.p; ++r) {
    double busy = 0.0;
    for (int c = 0; c < sp.v; ++c) {
      const int vs = pipeline::virtual_stage(r, c, sp.p);
      const ChunkCost& cc = costs[static_cast<std::size_t>(vs)];
      double per_mb = cc.fwd() + cc.bwd();
      if (cfg.recompute) per_mb += cc.fwd_compute;
      busy += per_mb * sp.m;
    }
    ideal = std::max(ideal, busy);
  }

  // ---- end-of-batch work: data-parallel all-reduce + optimizer ----
  const double params = core::params_per_gpu(m, cfg);
  const bool dp_in_node =
      static_cast<std::int64_t>(cfg.t) * cfg.d <= hw.gpus_per_node;
  const double dp_time =
      cfg.d > 1 ? ring_all_reduce_time(hw, params * kFp32, cfg.d, dp_in_node) : 0.0;
  // Embedding-group grad sync (first/last stage word embeddings).
  const double embed_sync =
      cfg.p > 1 ? p2p_time(hw, (static_cast<double>(m.vocab) / cfg.t) * m.hidden *
                                   kFp32,
                           /*cross_node=*/true)
                : 0.0;
  // Optimizer: read grads + master/m/v read-modify-write (~6 fp32 passes).
  const double opt_time = memory_bound_time(hw, params * 6.0 * kFp32);

  IterationResult res;
  res.pipeline_makespan = makespan;
  res.iteration_seconds = makespan + dp_time + embed_sync + opt_time;
  res.bubble_fraction = (makespan - ideal) / ideal;

  // FLOPs counted as executed: Eq. (3) assumes recomputation (4 passes);
  // without it the transformer term takes 3 of 4 passes.
  double flops = core::flops_per_iteration(m, global_batch);
  if (!cfg.recompute) flops *= 0.75;
  res.aggregate_flops = flops / res.iteration_seconds;
  res.per_gpu_flops = res.aggregate_flops / static_cast<double>(cfg.n());
  res.percent_of_peak = res.per_gpu_flops / hw.peak_flops;
  res.sequences_per_second =
      static_cast<double>(global_batch) / res.iteration_seconds;

  res.p2p_seconds = transfer * 2.0 * sp.m * sp.v;
  res.tp_comm_seconds =
      (costs[0].fwd_tp_comm + costs[0].bwd_tp_comm) * sp.m * sp.v;
  res.dp_comm_seconds = dp_time;

  if (options.check_memory) {
    const auto mem = core::memory_per_gpu(m, cfg, global_batch);
    res.memory_bytes = mem.total();
    res.oom = !mem.fits(hw.gpu_memory);
  }
  return res;
}

core::ThroughputModel make_throughput_model(const ClusterSpec& hw,
                                            const SimOptions& options) {
  return [hw, options](const model::GptConfig& m, const core::ParallelConfig& cfg,
                       std::int64_t B) {
    const IterationResult r = simulate_iteration(hw, m, cfg, B, options);
    return r.oom ? 1e18 : r.iteration_seconds;
  };
}

}  // namespace ptdp::sim
