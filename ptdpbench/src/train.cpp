// Training workloads: PtdpEngine::train_step over an in-process rank gang.
//
//   train-pt       (p,t,d) = (2,2,1), interleaved 1F1B with v = 2, §4.1
//                  scatter/gather, f32, B = 16, b = 2 (m = 8).
//   train-dp-bf16  (p,t,d) = (1,1,4), bf16 weights with fp32 masters and
//                  dynamic loss scaling, f32 grad wire, B = 4, b = 1.
//
// Both use a 4-layer GPT (h = 512, 8 heads, vocab 1024, s = 128), Adam, no
// recompute, and one intra-op thread per rank thread. A std::barrier outside
// the communicator closes every step, so a step lasts until the slowest
// rank finishes and all ranks agree when the timed window ends.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/timeline.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "workloads.hpp"

namespace ptdpbench {
namespace {

using namespace ptdp;
using tensor::DType;

struct TrainSpec {
  const char* name;
  int p, t, d, v;
  std::int64_t b, global_batch;
  bool interleaved, scatter_gather;
  DType dtype;
};

const TrainSpec kTrainSpecs[] = {
    {"train-pt", 2, 2, 1, 2, 2, 16, true, true, DType::kF32},
    {"train-dp-bf16", 1, 1, 4, 1, 1, 4, false, false, DType::kBf16},
};

constexpr std::int64_t kSeq = 128;
constexpr int kWarmupSteps = 1;
constexpr int kSetupRepeats = 3;
/// The timed window never ends before this many steps. loss_final is the
/// median global loss over exactly these steps, so it is read at the same
/// steps however fast the program runs, and one loss spike of a small batch
/// does not move it.
constexpr int kMinTimedSteps = 6;
const char* const kGroups[] = {"tensor", "data", "embedding"};

const TrainSpec& train_spec(const std::string& name) {
  for (const TrainSpec& s : kTrainSpecs) {
    if (name == s.name) return s;
  }
  PTDP_CHECK(false) << "unknown training workload " << name;
  return kTrainSpecs[0];
}

core::EngineOptions engine_options(const TrainSpec& s, std::uint64_t seed) {
  core::EngineOptions o;
  o.model.num_layers = 4;
  o.model.hidden = 512;
  o.model.heads = 8;
  o.model.vocab = 1024;
  o.model.seq = kSeq;
  o.model.dropout = 0.1f;
  o.model.dtype = s.dtype;
  o.model.seed = seed * 7919 + 17;
  o.parallel.p = s.p;
  o.parallel.t = s.t;
  o.parallel.d = s.d;
  o.parallel.v = s.v;
  o.parallel.b = s.b;
  o.parallel.schedule = s.interleaved ? pipeline::ScheduleType::kInterleaved
                                      : pipeline::ScheduleType::kOneFOneB;
  o.parallel.scatter_gather = s.scatter_gather;
  o.parallel.recompute = false;
  o.global_batch = s.global_batch;
  o.optimizer = core::EngineOptions::Opt::kAdam;
  o.adam.lr = 1e-3f;
  o.grad_comm_dtype = DType::kF32;
  return o;
}

struct PhaseConfig {
  bool timed = true;             ///< false: stop after warm-up (a set-up repeat)
  double seconds = 0.0;          ///< timed steps run until this much wall time...
  std::int64_t fixed_steps = 0;  ///< ...or exactly this many, when > 0
  bool trace = false;            ///< record spans over the timed window
};

struct RankRecord {
  std::vector<float> losses;             ///< every step, warm-up included
  std::vector<core::StepStats> timed;    ///< StepStats of the timed steps
  pipeline::CommStats p2p_before, p2p_after;
};

using GroupTotals = std::map<std::string, obs::CommGroupStats>;

struct PhaseResult {
  double setup_s = 0.0;
  std::vector<double> step_ms;  ///< per timed step, until the slowest rank finished
  double window_s = 0.0;
  std::vector<RankRecord> ranks;
  std::vector<GroupTotals> groups_before, groups_after;  ///< [rank], traced only
};

std::vector<GroupTotals> snapshot_groups(int world_size) {
  std::vector<GroupTotals> out(static_cast<std::size_t>(world_size));
  auto& reg = obs::MetricsRegistry::instance();
  for (int r = 0; r < world_size; ++r) {
    for (const char* g : kGroups) out[static_cast<std::size_t>(r)][g] = reg.group_total(g, r);
  }
  return out;
}

/// One engine lifetime: world + engine construction and warm-up (the set-up),
/// then, when cfg.timed, the timed steps.
PhaseResult run_phase(const TrainSpec& spec, const data::TokenDataset& dataset,
                      std::uint64_t seed, const PhaseConfig& cfg) {
  const core::EngineOptions options = engine_options(spec, seed);
  const int world_size = spec.p * spec.t * spec.d;
  PhaseResult result;
  result.ranks.resize(static_cast<std::size_t>(world_size));

  auto& tracer = obs::Tracer::instance();
  if (cfg.trace) {
    obs::MetricsRegistry::instance().reset();
    tracer.set_mode(obs::TraceMode::kMetricsOnly);
  }

  // Completion steps run on one thread while every rank waits in the
  // barrier, so the clock state below needs no further synchronization.
  const double t_start = now_s();
  double t_begin = 0.0, t_last = 0.0;
  bool started = false, stop = false;
  auto on_barrier = [&]() noexcept {
    const double now = now_s();
    if (!started) {
      started = true;
      result.setup_s = now - t_start;
      t_begin = t_last = now;
      stop = !cfg.timed;
      if (cfg.trace && cfg.timed) {
        result.groups_before = snapshot_groups(world_size);
        tracer.reset();
        tracer.set_mode(obs::TraceMode::kFull);
      }
      return;
    }
    result.step_ms.push_back((now - t_last) * 1e3);
    t_last = now;
    const auto n = static_cast<std::int64_t>(result.step_ms.size());
    stop = cfg.fixed_steps > 0
               ? n >= cfg.fixed_steps
               : (now - t_begin >= cfg.seconds && n >= kMinTimedSteps);
    if (stop) {
      result.window_s = now - t_begin;
      if (cfg.trace) {
        tracer.set_mode(obs::TraceMode::kMetricsOnly);
        result.groups_after = snapshot_groups(world_size);
      }
    }
  };
  std::barrier sync(world_size, on_barrier);

  dist::World world(world_size);
  world.run([&](dist::Comm& comm) {
    // A rank that throws leaves the barrier so its peers cannot hang in it;
    // they unwind through the poisoned mailbox (dist::World).
    try {
      core::PtdpEngine engine(comm, options);
      data::ShardedLoader loader(dataset, spec.global_batch, spec.b, spec.d,
                                 engine.groups().coord().data, seed + 88);
      RankRecord& rec = result.ranks[static_cast<std::size_t>(comm.rank())];
      std::int64_t step = 0;
      for (int w = 0; w < kWarmupSteps; ++w) {
        rec.losses.push_back(engine.train_step(loader.next_batch(step++)));
      }
      sync.arrive_and_wait();
      rec.p2p_before = engine.executor().comm_stats();
      while (!stop) {
        rec.losses.push_back(engine.train_step(loader.next_batch(step++)));
        rec.timed.push_back(engine.last_stats());
        sync.arrive_and_wait();
      }
      rec.p2p_after = engine.executor().comm_stats();
    } catch (...) {
      sync.arrive_and_drop();
      throw;
    }
  });
  tracer.set_mode(obs::TraceMode::kOff);
  return result;
}

std::uint32_t bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Checks every step's loss: finite, and the same bits on every rank.
/// Returns the number of timed steps that failed.
std::int64_t check_losses(const PhaseResult& ph, Report& report, const char* phase) {
  std::int64_t failed = 0;
  const auto& ref = ph.ranks[0].losses;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    bool ok = std::isfinite(ref[i]);
    for (const RankRecord& r : ph.ranks) {
      ok = ok && r.losses.size() == ref.size() && bits(r.losses[i]) == bits(ref[i]);
    }
    if (!ok) {
      report.problem(std::string(phase) + ": loss at step " + std::to_string(i) +
                     " is not finite or differs across ranks");
      if (i >= static_cast<std::size_t>(kWarmupSteps)) ++failed;
    }
  }
  return failed;
}

double tokens_per_s(const TrainSpec& spec, const PhaseResult& ph) {
  const double tokens = static_cast<double>(spec.global_batch * kSeq) *
                        static_cast<double>(ph.step_ms.size());
  return ph.window_s > 0 ? tokens / ph.window_s : 0.0;
}

// ---- per-layer analysis of the traced window ------------------------------------

struct Interval {
  std::int64_t b, e;
};

/// Sorted, disjoint union of intervals.
std::vector<Interval> merge(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.b < y.b; });
  std::vector<Interval> out;
  for (const Interval& i : v) {
    if (!out.empty() && i.b <= out.back().e) {
      out.back().e = std::max(out.back().e, i.e);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

std::int64_t total(const std::vector<Interval>& merged) {
  std::int64_t s = 0;
  for (const Interval& i : merged) s += i.e - i.b;
  return s;
}

/// Length of the intersection of two merged interval lists.
std::int64_t overlap(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  std::int64_t s = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].b, b[j].b), hi = std::min(a[i].e, b[j].e);
    if (hi > lo) s += hi - lo;
    if (a[i].e < b[j].e) {
      ++i;
    } else {
      ++j;
    }
  }
  return s;
}

bool inside(const std::vector<Interval>& merged, const Interval& x) {
  auto it = std::upper_bound(merged.begin(), merged.end(), x.b,
                             [](std::int64_t b, const Interval& i) { return b < i.b; });
  if (it == merged.begin()) return false;
  --it;
  return x.e <= it->e;
}

bool is_collective(const std::string& n) {
  return n == "all_reduce" || n == "all_gather" || n == "all_gather_variable" ||
         n == "reduce_scatter" || n == "broadcast" || n == "barrier";
}

bool is_attention_op(const std::string& n) {
  static const std::set<std::string> kAttn = {
      "graph.bmm",      "graph.bmm_nt",          "graph.bmm_tn",
      "graph.softmax",  "graph.softmax_bwd",     "graph.scale_causal_softmax",
      "graph.scale_mask_softmax", "graph.scale_softmax_bwd"};
  return kAttn.count(n) > 0;
}

/// Per-layer training metrics. Times are per step on one rank, reported as
/// the max over ranks unless the name says otherwise.
struct TrainLayers {
  double train_step_ms = 0, busy_frac = 0, comm_wait_frac = 0, gflops_per_rank = 0,
         embedding_sync_ms = 0, coverage_min = 0;
  double linear_fwd_ms = 0, linear_bwd_ms = 0, attn_ms = 0, pointwise_ms = 0,
         ops_per_step = 0;
  double fwd_ms = 0, bwd_ms = 0, recv_wait_ms = 0, p2p_bytes = 0, p2p_msgs = 0,
         bubble = 0, bubble_analytic = 0, stage_imbalance = 0;
  double tensor_coll_ms = 0, tensor_calls = 0, tensor_bytes = 0, data_bytes = 0,
         embedding_bytes = 0;
  double grad_reduce_ms = 0, grad_overlap = 0, grad_buckets = 0;
  double optim_ms = 0, loss_scale = 0, overflow_steps = 0;
  double mem_peak_mb = 0, pool_hit_rate = 0, heap_allocs = 0;

  void add_to(Report& r) const {
    r.add("core.train_step_ms", train_step_ms, "ms");
    r.add("core.busy_frac", busy_frac, "ratio");
    r.add("core.comm_wait_frac", comm_wait_frac, "ratio");
    r.add("core.achieved_gflops_per_rank", gflops_per_rank, "GFLOP/s");
    r.add("core.embedding_sync_ms", embedding_sync_ms, "ms");
    r.add("core.breakdown_coverage", coverage_min, "ratio");
    r.add("graph.linear_fwd_ms", linear_fwd_ms, "ms");
    r.add("graph.linear_bwd_ms", linear_bwd_ms, "ms");
    r.add("graph.attn_ms", attn_ms, "ms");
    r.add("graph.pointwise_ms", pointwise_ms, "ms");
    r.add("graph.ops_per_step", ops_per_step, "count");
    r.add("pipeline.fwd_ms", fwd_ms, "ms");
    r.add("pipeline.bwd_ms", bwd_ms, "ms");
    r.add("pipeline.recv_wait_ms", recv_wait_ms, "ms");
    r.add("pipeline.p2p_bytes_per_step", p2p_bytes, "B");
    r.add("pipeline.p2p_msgs_per_step", p2p_msgs, "count");
    r.add("pipeline.bubble_frac", bubble, "ratio");
    r.add("pipeline.bubble_frac_analytic", bubble_analytic, "ratio");
    r.add("pipeline.stage_busy_imbalance", stage_imbalance, "ratio");
    r.add("dist.tensor.coll_ms", tensor_coll_ms, "ms");
    r.add("dist.tensor.coll_calls_per_step", tensor_calls, "count");
    r.add("dist.tensor.coll_bytes_per_step", tensor_bytes, "B");
    r.add("dist.data.coll_bytes_per_step", data_bytes, "B");
    r.add("dist.embedding.coll_bytes_per_step", embedding_bytes, "B");
    r.add("comm.grad_reduce_ms", grad_reduce_ms, "ms");
    r.add("comm.grad_reduce_overlap", grad_overlap, "ratio");
    r.add("comm.grad_buckets_per_step", grad_buckets, "count");
    r.add("optim.step_ms", optim_ms, "ms");
    r.add("optim.loss_scale", loss_scale, "x");
    r.add("optim.overflow_steps", overflow_steps, "count");
    r.add("mem.peak_step_mb", mem_peak_mb, "MB");
    r.add("mem.pool_hit_rate", pool_hit_rate, "ratio");
    r.add("mem.heap_allocs_per_step", heap_allocs, "count");
  }
};

TrainLayers analyze(const TrainSpec& spec, const PhaseResult& ph,
                    const std::vector<obs::TraceEvent>& events, Report& report) {
  const int n = spec.p * spec.t * spec.d;
  const double steps = static_cast<double>(std::max<std::size_t>(1, ph.step_ms.size()));
  auto per_step_ms = [&](double ns) { return ns / 1e6 / steps; };

  struct Collective {
    Interval iv;
    std::int64_t ranks, bytes;
    bool all_reduce;
  };
  struct RankSpans {
    std::vector<Interval> steps, attributed, contexts, grad_reduce;
    std::vector<Collective> collectives;
    std::map<std::string, double> ns;  ///< Σ wall per span name or graph bucket
    double graph_ops = 0;
    std::map<std::int64_t, double> stage_busy_ns;
  };
  std::vector<RankSpans> rs(static_cast<std::size_t>(n));
  for (const obs::TraceEvent& ev : events) {
    if (ev.wall_ns < 0 || ev.rank < 0 || ev.rank >= n) continue;
    RankSpans& r = rs[static_cast<std::size_t>(ev.rank)];
    const std::string name = ev.name;
    const Interval iv{ev.ts_ns, ev.ts_ns + ev.wall_ns};
    const double w = static_cast<double>(ev.wall_ns);
    if (name == "train_step") {
      r.steps.push_back(iv);
      r.ns["train_step"] += w;
      continue;
    }
    if (name.rfind("graph.", 0) == 0) {
      r.graph_ops += 1;
      if (name == "graph.linear_fwd") {
        r.ns["linear_fwd"] += w;
      } else if (name == "graph.linear_bwd") {
        r.ns["linear_bwd"] += w;
      } else if (is_attention_op(name)) {
        r.ns["attn"] += w;
      } else {
        r.ns["pointwise"] += w;
      }
      continue;
    }
    if (name == "fwd" || name == "bwd") r.stage_busy_ns[ev.arg("stage", 0)] += w;
    if (name == "embedding_sync" || name == "grad_reduce" || name == "grad_reduce_finish") {
      r.contexts.push_back(iv);
    }
    if (name == "grad_reduce") r.grad_reduce.push_back(iv);
    if (is_collective(name)) {
      r.collectives.push_back(
          {iv, ev.arg("ranks", 0), ev.arg("bytes", 0), name == "all_reduce"});
      r.attributed.push_back(iv);
    }
    if (name == "fwd" || name == "bwd" || name == "recv_wait" || name == "p2p_send" ||
        name == "embedding_sync" || name == "grad_reduce" ||
        name == "grad_reduce_finish" || name == "optimizer_step") {
      r.attributed.push_back(iv);
    }
    r.ns[name] += w;
  }

  TrainLayers L;
  std::vector<double> coverage, busy, wait, hit;
  for (int rank = 0; rank < n; ++rank) {
    RankSpans& r = rs[static_cast<std::size_t>(rank)];
    const auto steps_m = merge(r.steps);
    const auto ctx_m = merge(r.contexts);
    const auto gr_m = merge(r.grad_reduce);
    const std::int64_t step_ns = total(steps_m);
    const std::int64_t covered = overlap(merge(r.attributed), steps_m);
    const double cov =
        step_ns > 0 ? static_cast<double>(covered) / static_cast<double>(step_ns) : 0.0;
    coverage.push_back(cov);
    std::printf("core.breakdown_coverage rank %d: %.3f\n", rank, cov);
    if (cov < 0.9) {
      report.warn("core.breakdown_coverage on rank " + std::to_string(rank) + " is " +
                  std::to_string(cov) + " (< 0.9)");
    }
    // Tensor-parallel collectives: t-rank collectives outside the embedding
    // and data-parallel reductions, minus the scalar loss all-reduce.
    double tensor_ns = 0, buckets = 0;
    for (const Collective& c : r.collectives) {
      if (inside(gr_m, c.iv)) buckets += 1;
      const bool scalar = c.all_reduce && c.bytes <= 4;
      if (spec.t > 1 && c.ranks == spec.t && !scalar && !inside(ctx_m, c.iv)) {
        tensor_ns += static_cast<double>(c.iv.e - c.iv.b);
      }
    }
    L.train_step_ms = std::max(L.train_step_ms, per_step_ms(r.ns["train_step"]));
    L.embedding_sync_ms = std::max(L.embedding_sync_ms, per_step_ms(r.ns["embedding_sync"]));
    L.linear_fwd_ms = std::max(L.linear_fwd_ms, per_step_ms(r.ns["linear_fwd"]));
    L.linear_bwd_ms = std::max(L.linear_bwd_ms, per_step_ms(r.ns["linear_bwd"]));
    L.attn_ms = std::max(L.attn_ms, per_step_ms(r.ns["attn"]));
    L.pointwise_ms = std::max(L.pointwise_ms, per_step_ms(r.ns["pointwise"]));
    L.ops_per_step = std::max(L.ops_per_step, r.graph_ops / steps);
    L.fwd_ms = std::max(L.fwd_ms, per_step_ms(r.ns["fwd"]));
    L.bwd_ms = std::max(L.bwd_ms, per_step_ms(r.ns["bwd"]));
    L.recv_wait_ms = std::max(L.recv_wait_ms, per_step_ms(r.ns["recv_wait"]));
    L.tensor_coll_ms = std::max(L.tensor_coll_ms, per_step_ms(tensor_ns));
    L.grad_reduce_ms = std::max(L.grad_reduce_ms, per_step_ms(r.ns["grad_reduce"]));
    L.grad_buckets = std::max(L.grad_buckets, buckets / steps);
    L.optim_ms = std::max(L.optim_ms, per_step_ms(r.ns["optimizer_step"]));

    const RankRecord& rec = ph.ranks[static_cast<std::size_t>(rank)];
    std::vector<double> b, w, h;
    for (const core::StepStats& s : rec.timed) {
      b.push_back(s.step_seconds > 0 ? s.busy_seconds / s.step_seconds : 0.0);
      w.push_back(s.step_seconds > 0 ? s.comm_wait_seconds / s.step_seconds : 0.0);
      h.push_back(s.mem_pool_hit_rate);
      L.mem_peak_mb = std::max(L.mem_peak_mb, static_cast<double>(s.peak_memory_bytes) / 1e6);
      L.heap_allocs = std::max(L.heap_allocs, static_cast<double>(s.mem_heap_allocs));
    }
    busy.push_back(mean(b));
    wait.push_back(mean(w));
    hit.push_back(mean(h));
    const pipeline::CommStats& p0 = rec.p2p_before;
    const pipeline::CommStats& p1 = rec.p2p_after;
    L.p2p_bytes = std::max(L.p2p_bytes,
                           static_cast<double>(p1.p2p_bytes_sent - p0.p2p_bytes_sent) / steps);
    L.p2p_msgs = std::max(L.p2p_msgs,
                          static_cast<double>(p1.p2p_messages - p0.p2p_messages) / steps);
    // Per-step growth of one registry comm counter of group `g` on this rank.
    auto delta = [&](const char* g, std::uint64_t obs::CommGroupStats::*field) {
      const auto r = static_cast<std::size_t>(rank);
      return static_cast<double>(ph.groups_after[r].at(g).*field -
                                 ph.groups_before[r].at(g).*field) /
             steps;
    };
    using CS = obs::CommGroupStats;
    L.tensor_calls = std::max(L.tensor_calls, delta("tensor", &CS::collective_ops));
    L.tensor_bytes = std::max(L.tensor_bytes, delta("tensor", &CS::coll_send_bytes));
    L.data_bytes = std::max(L.data_bytes, delta("data", &CS::coll_send_bytes));
    L.embedding_bytes =
        std::max(L.embedding_bytes, delta("embedding", &CS::coll_send_bytes));
  }
  L.coverage_min = min_of(coverage);
  L.busy_frac = max_of(busy);
  L.comm_wait_frac = max_of(wait);
  L.pool_hit_rate = min_of(hit);

  const core::StepStats& last = ph.ranks[0].timed.back();
  L.gflops_per_rank = last.model_flops / (median(ph.step_ms) / 1e3) / n / 1e9;
  L.grad_overlap = last.grad_reduce_overlap;
  L.loss_scale = last.loss_scale;
  L.overflow_steps = static_cast<double>(last.overflow_steps);

  if (spec.p > 1) {
    const obs::TimelineReport tl = obs::analyze_events(events);
    L.bubble = tl.bubble_fraction;
    L.bubble_analytic = tl.analytic_bubble_fraction;
    // Per-stage busy (mean over the ranks of a stage), max over min.
    std::map<std::int64_t, std::vector<double>> by_stage;
    for (const RankSpans& r : rs) {
      for (const auto& [stage, ns] : r.stage_busy_ns) by_stage[stage].push_back(ns);
    }
    std::vector<double> stage_busy;
    for (const auto& [stage, v] : by_stage) stage_busy.push_back(mean(v));
    if (min_of(stage_busy) > 0) L.stage_imbalance = max_of(stage_busy) / min_of(stage_busy);
  }
  return L;
}

}  // namespace

void add_zero_training_layers(Report& report) { TrainLayers{}.add_to(report); }

Report run_training(const RunOptions& o) {
  const TrainSpec& spec = train_spec(o.workload);
  runtime::set_intra_op_threads(1);
  obs::Tracer::instance().set_mode(obs::TraceMode::kOff);
  // Enough for every rank's spans over the traced window (no drops).
  obs::Tracer::instance().set_thread_capacity(std::size_t{1} << 18);

  const core::EngineOptions options = engine_options(spec, o.seed);
  data::SyntheticCorpus corpus(options.model.vocab, o.seed * 31 + 5);
  const data::TokenDataset dataset(corpus.generate(1 << 17), options.model.seq);
  Report report;

  if (!o.trace) {
    std::vector<double> setups;
    std::vector<float> warm_ref;
    for (int rep = 0; rep + 1 < kSetupRepeats; ++rep) {
      PhaseConfig setup_only;
      setup_only.timed = false;
      const PhaseResult s = run_phase(spec, dataset, o.seed, setup_only);
      setups.push_back(s.setup_s);
      check_losses(s, report, "set-up");
      if (rep == 0) warm_ref = s.ranks[0].losses;
    }
    PhaseConfig main;
    main.seconds = o.seconds;
    const PhaseResult ph = run_phase(spec, dataset, o.seed, main);
    setups.push_back(ph.setup_s);
    const double rss = peak_rss_mb();
    report.attempted = static_cast<std::int64_t>(ph.step_ms.size());
    report.failed = check_losses(ph, report, "timed");
    for (std::size_t i = 0; i < warm_ref.size(); ++i) {
      if (bits(warm_ref[i]) != bits(ph.ranks[0].losses[i])) {
        report.problem("warm-up loss differs between set-up repeats");
      }
    }
    const std::vector<float>& losses = ph.ranks[0].losses;
    const auto first = losses.begin() + kWarmupSteps;
    const double loss = median(std::vector<double>(first, first + kMinTimedSteps));
    std::printf("train: %zu timed steps in %.3f s, step %s\n", ph.step_ms.size(),
                ph.window_s, describe_latency(ph.step_ms).c_str());
    std::printf("train: losses:");
    for (float l : ph.ranks[0].losses) std::printf(" %.4f", l);
    std::printf("\ntrain: set-up repeats (s):");
    for (double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
    report.add("setup_s", median(setups), "s");
    report.add("tokens_per_s", tokens_per_s(spec, ph), "tok/s");
    report.add("step_ms_p50", median(ph.step_ms), "ms");
    report.add("loss_final", loss, "nats");
    report.add("peak_rss_mb", rss, "MB");
    return report;
  }

  // Traced run: an untraced pass, then a traced pass over the same steps.
  PhaseConfig plain;
  plain.seconds = o.seconds / 2;
  const PhaseResult a = run_phase(spec, dataset, o.seed, plain);
  PhaseConfig traced;
  traced.fixed_steps = static_cast<std::int64_t>(a.step_ms.size());
  traced.trace = true;
  const PhaseResult b = run_phase(spec, dataset, o.seed, traced);
  report.attempted = static_cast<std::int64_t>(a.step_ms.size() + b.step_ms.size());
  report.failed = check_losses(a, report, "untraced") + check_losses(b, report, "traced");
  const std::vector<float>& la = a.ranks[0].losses;
  const std::vector<float>& lb = b.ranks[0].losses;
  std::int64_t mismatched = 0;
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (i >= lb.size() || bits(la[i]) != bits(lb[i])) ++mismatched;
  }
  if (mismatched > 0) {
    report.problem(std::to_string(mismatched) +
                   " steps' loss differs between the untraced and traced passes");
    report.failed += mismatched;
  }

  auto& tracer = obs::Tracer::instance();
  if (!o.trace_out.empty() && !tracer.write_chrome_json(o.trace_out)) {
    report.problem("could not write " + o.trace_out);
  }
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const TrainLayers layers = analyze(spec, b, events, report);
  layers.add_to(report);
  add_zero_serving_layers(report);
  const double tps_a = tokens_per_s(spec, a), tps_b = tokens_per_s(spec, b);
  std::printf("train: untraced %.1f tok/s, traced %.1f tok/s over %zu steps\n", tps_a,
              tps_b, b.step_ms.size());
  report.add("obs.trace_overhead_frac", tps_a > 0 ? 1.0 - tps_b / tps_a : 0.0, "ratio");
  return report;
}

ThreadLayout thread_layout(const std::string& name) {
  if (is_training_workload(name)) {
    const TrainSpec& s = train_spec(name);
    return {s.p * s.t * s.d, 1};
  }
  return {1, serving_threads()};
}

bool is_training_workload(const std::string& name) {
  for (const TrainSpec& s : kTrainSpecs) {
    if (name == s.name) return true;
  }
  return false;
}

}  // namespace ptdpbench
