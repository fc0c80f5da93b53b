// train_main — the command-line training driver (the torchrun/megatron
// entrypoint equivalent). Configures everything from flags, trains with
// full PTD-P, periodically commits checkpoints, resumes from the newest
// committed checkpoint, and — when a checkpoint dir is given — runs under
// the fault-tolerance supervisor: a rank failure triggers automatic
// restart from the last committed step.
//
// Usage (all flags optional):
//   train_main --layers 4 --hidden 64 --heads 4 --vocab 128 --seq 32
//              --p 2 --t 2 --d 2 --micro-batch 2 --global-batch 32
//              --schedule 1f1b|gpipe|interleaved --chunks 2
//              --steps 50 --lr 3e-3 --warmup 10 --clip 1.0
//              --objective causal|mlm --no-recompute
//              --dtype f32|bf16 --grad-comm-dtype f32|bf16
//              --scatter-gather --no-overlap-grad-reduce
//              --ckpt-dir /tmp/run --ckpt-every 25 --log-every 5
//              --eval-every 10
//              --max-restarts 3 --fault-seed 1
//              --fault-plan kill:<rank>:<site>:<nth>[,...]
//              --op-timeout-ms 2000 --restarts-before-evict 1
//              --straggler-ratio 3.0 --straggler-patience 3 --no-health
//              --trace-out /tmp/trace.json --metrics-out /tmp/metrics.json
//              --dump-plan plan.json
//
// Planned execution (DESIGN.md §14): every layer runs its fused op-graph
// plan through the graph executor — the plan is the layer's only body.
// --dump-plan writes every virtual stage's planned graph — post-fusion node
// sequences, value lifetimes, arena slot assignment, buffer stats — as
// ptdp-plan-v1 JSON (path or "-" for stdout) and exits without training.
//
// Observability (DESIGN.md §11): --trace-out enables full tracing and writes
// a Chrome trace_event JSON (open in Perfetto / chrome://tracing; tid = world
// rank), then prints the reconstructed pipeline-timeline report (measured
// bubble fraction vs the analytic (p-1)/(v*m)). --metrics-out enables the
// metrics plane (counters/histograms + per-rank comm volumes) and writes the
// registry as JSON. Either flag also prints the per-rank comm-volume report.
//
// Fault specs (comma-separated; <site> is send|recv|coll|ckpt):
//   kill:<rank>:<site>:<nth>          kill rank at its nth op at site
//   delay:<rank>:<site>:<nth>:<usec>  delay that op instead
//   corrupt:<rank>:<nth>              flip a byte in the rank's nth ckpt write
//   slow:<rank>:<site>:<nth>:<usec>   from the nth op on, busy-spin usec per op
//                                     (sticky: survives restart, forces evict)
//   flaky:<rank>:<nth>:<period>:<usec>  from the nth send on, delay every
//                                     period-th send by usec (0 usec = drop
//                                     the message instead; non-sticky)
//   hang:<rank>:<site>:<nth>          from the nth op on, rank hangs forever
//                                     (sticky; auto-arms --op-timeout-ms 2000
//                                     when no explicit timeout is given)
// e.g. --ckpt-dir /tmp/run --ckpt-every 10 --fault-plan kill:1:send:500
// demonstrates kill -> supervisor restart -> resume from committed step;
// --fault-plan slow:1:send:40:3000 demonstrates straggler detection ->
// restart-in-place -> eviction -> elastic relayout on a 1-rank world.
//
// Self-healing (DESIGN.md §15): under the supervisor a HealthMonitor watches
// per-rank busy time vs the across-rank median (straggler detection), the
// watchdog converts silent peer hangs into attributed RankTimeouts, and the
// escalation ladder goes warn -> restart-in-place -> evict + elastic
// relayout (merge the committed shards, resume serial). --no-health disables
// the monitor; --restarts-before-evict sets the grace budget.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptdp/ckpt/manifest.hpp"
#include "ptdp/ckpt/reshard.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/ft/health.hpp"
#include "ptdp/graph/builder.hpp"
#include "ptdp/graph/passes.hpp"
#include "ptdp/dist/fault.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/ft/supervisor.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/timeline.hpp"
#include "ptdp/obs/trace.hpp"

using namespace ptdp;

namespace {

struct Args {
  model::GptConfig model{.num_layers = 4, .hidden = 64, .heads = 4, .vocab = 128,
                         .seq = 32};
  core::ParallelConfig parallel{.p = 1, .t = 1, .d = 1, .b = 2};
  std::int64_t global_batch = 16;
  int steps = 50;
  float lr = 3e-3f;
  std::int64_t warmup = 0;
  double clip = 0.0;
  bool mlm = false;
  tensor::DType grad_comm_dtype = tensor::DType::kF32;
  bool overlap_grad_reduce = true;
  std::string ckpt_dir;
  int ckpt_every = 0;
  int log_every = 5;
  int eval_every = 0;
  std::string fault_plan;
  std::uint64_t fault_seed = 0;
  int max_restarts = 3;
  int op_timeout_ms = 0;         ///< watchdog; 0 = off (auto-armed by hang:)
  int restarts_before_evict = 1; ///< degraded-rank grace budget
  bool health = true;            ///< straggler monitor under the supervisor
  double straggler_ratio = 3.0;
  int straggler_patience = 3;
  std::string trace_out;    ///< Chrome trace JSON path; enables full tracing
  std::string metrics_out;  ///< metrics JSON path; enables the metrics plane
  std::string dump_plan;    ///< plan JSON path ("-" = stdout); dump and exit
};

std::optional<tensor::DType> dtype_from(const std::string& s) {
  if (s == "f32") return tensor::DType::kF32;
  if (s == "bf16") return tensor::DType::kBf16;
  return std::nullopt;
}

std::optional<dist::FaultSite> site_from(const std::string& s) {
  if (s == "send") return dist::FaultSite::kSend;
  if (s == "recv") return dist::FaultSite::kRecv;
  if (s == "coll") return dist::FaultSite::kCollective;
  if (s == "ckpt") return dist::FaultSite::kCkptWrite;
  return std::nullopt;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// (p, t) of the layout that wrote a manifest, recovered from its shard
/// file names (shard-p{i}-t{j}-d{k}.ckpt) — manifests carry no layout
/// metadata, but the grid is fully determined by the names.
std::pair<int, int> shard_layout(const ckpt::Manifest& m) {
  int p = 1, t = 1;
  for (const auto& e : m.shards) {
    const auto pos = e.file.rfind("shard-p");
    int pi = 0, ti = 0, di = 0;
    if (pos != std::string::npos &&
        std::sscanf(e.file.c_str() + pos, "shard-p%d-t%d-d%d", &pi, &ti, &di) == 3) {
      p = std::max(p, pi + 1);
      t = std::max(t, ti + 1);
    }
  }
  return {p, t};
}

bool parse_fault_plan(const std::string& text, dist::FaultPlan& plan,
                      bool& has_hang) {
  for (const std::string& token : split(text, ',')) {
    const auto f = split(token, ':');
    if (f.size() == 4 && f[0] == "kill") {
      const auto site = site_from(f[2]);
      if (!site) return false;
      plan.kill(std::atoi(f[1].c_str()), *site,
                static_cast<std::uint64_t>(std::atoll(f[3].c_str())));
    } else if (f.size() == 5 && f[0] == "delay") {
      const auto site = site_from(f[2]);
      if (!site) return false;
      plan.delay(std::atoi(f[1].c_str()), *site,
                 static_cast<std::uint64_t>(std::atoll(f[3].c_str())),
                 std::chrono::microseconds(std::atoll(f[4].c_str())));
    } else if (f.size() == 3 && f[0] == "corrupt") {
      plan.corrupt_ckpt(std::atoi(f[1].c_str()),
                        static_cast<std::uint64_t>(std::atoll(f[2].c_str())));
    } else if (f.size() == 5 && f[0] == "slow") {
      const auto site = site_from(f[2]);
      if (!site) return false;
      plan.slow_rank(std::atoi(f[1].c_str()), *site,
                     static_cast<std::uint64_t>(std::atoll(f[3].c_str())),
                     std::chrono::microseconds(std::atoll(f[4].c_str())));
    } else if (f.size() == 5 && f[0] == "flaky") {
      const auto usec = std::atoll(f[4].c_str());
      plan.flaky_link(std::atoi(f[1].c_str()),
                      static_cast<std::uint64_t>(std::atoll(f[2].c_str())),
                      static_cast<std::uint64_t>(std::atoll(f[3].c_str())),
                      std::chrono::microseconds(usec), /*drop=*/usec == 0);
    } else if (f.size() == 4 && f[0] == "hang") {
      const auto site = site_from(f[2]);
      if (!site) return false;
      plan.hang(std::atoi(f[1].c_str()), *site,
                static_cast<std::uint64_t>(std::atoll(f[3].c_str())));
      has_hang = true;
    } else {
      return false;
    }
  }
  return true;
}

bool parse(int argc, char** argv, Args& a) {
  auto next_i64 = [&](int& i) { return std::atoll(argv[++i]); };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--layers") a.model.num_layers = next_i64(i);
    else if (flag == "--hidden") a.model.hidden = next_i64(i);
    else if (flag == "--heads") a.model.heads = next_i64(i);
    else if (flag == "--vocab") a.model.vocab = next_i64(i);
    else if (flag == "--seq") a.model.seq = next_i64(i);
    else if (flag == "--dropout") a.model.dropout = std::atof(argv[++i]);
    else if (flag == "--p") a.parallel.p = static_cast<int>(next_i64(i));
    else if (flag == "--t") a.parallel.t = static_cast<int>(next_i64(i));
    else if (flag == "--d") a.parallel.d = static_cast<int>(next_i64(i));
    else if (flag == "--micro-batch") a.parallel.b = next_i64(i);
    else if (flag == "--chunks") a.parallel.v = static_cast<int>(next_i64(i));
    else if (flag == "--global-batch") a.global_batch = next_i64(i);
    else if (flag == "--steps") a.steps = static_cast<int>(next_i64(i));
    else if (flag == "--lr") a.lr = std::atof(argv[++i]);
    else if (flag == "--warmup") a.warmup = next_i64(i);
    else if (flag == "--clip") a.clip = std::atof(argv[++i]);
    else if (flag == "--schedule") {
      const std::string v = argv[++i];
      if (v == "gpipe") a.parallel.schedule = pipeline::ScheduleType::kGPipe;
      else if (v == "1f1b") a.parallel.schedule = pipeline::ScheduleType::kOneFOneB;
      else if (v == "interleaved") {
        a.parallel.schedule = pipeline::ScheduleType::kInterleaved;
        if (a.parallel.v < 2) a.parallel.v = 2;
      } else {
        std::fprintf(stderr, "unknown schedule '%s'\n", v.c_str());
        return false;
      }
    } else if (flag == "--objective") {
      const std::string v = argv[++i];
      a.mlm = v == "mlm";
      a.model.causal = !a.mlm;
    } else if (flag == "--dtype" || flag == "--grad-comm-dtype") {
      const std::string v = argv[++i];
      const auto dt = dtype_from(v);
      if (!dt) {
        std::fprintf(stderr, "unknown dtype '%s' (want f32|bf16)\n", v.c_str());
        return false;
      }
      if (flag == "--dtype") a.model.dtype = *dt;
      else a.grad_comm_dtype = *dt;
    } else if (flag == "--no-recompute") a.parallel.recompute = false;
    else if (flag == "--scatter-gather") a.parallel.scatter_gather = true;
    else if (flag == "--no-overlap-grad-reduce") a.overlap_grad_reduce = false;
    else if (flag == "--ckpt-dir") a.ckpt_dir = argv[++i];
    else if (flag == "--ckpt-every") a.ckpt_every = static_cast<int>(next_i64(i));
    else if (flag == "--log-every") a.log_every = static_cast<int>(next_i64(i));
    else if (flag == "--eval-every") a.eval_every = static_cast<int>(next_i64(i));
    else if (flag == "--trace-out") a.trace_out = argv[++i];
    else if (flag == "--metrics-out") a.metrics_out = argv[++i];
    else if (flag == "--dump-plan") a.dump_plan = argv[++i];
    else if (flag == "--fault-plan") a.fault_plan = argv[++i];
    else if (flag == "--fault-seed") a.fault_seed = static_cast<std::uint64_t>(next_i64(i));
    else if (flag == "--max-restarts") a.max_restarts = static_cast<int>(next_i64(i));
    else if (flag == "--op-timeout-ms") a.op_timeout_ms = static_cast<int>(next_i64(i));
    else if (flag == "--restarts-before-evict") a.restarts_before_evict = static_cast<int>(next_i64(i));
    else if (flag == "--no-health") a.health = false;
    else if (flag == "--straggler-ratio") a.straggler_ratio = std::atof(argv[++i]);
    else if (flag == "--straggler-patience") a.straggler_patience = static_cast<int>(next_i64(i));
    else {
      std::fprintf(stderr, "unknown flag '%s' (see header comment for usage)\n",
                   flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 1;

  if (!args.dump_plan.empty()) {
    // Plan inspection: emit every virtual stage's planned op graph (same
    // layer striping as the engine, §2.2.2) as a JSON array and exit.
    std::FILE* out = args.dump_plan == "-"
                         ? stdout
                         : std::fopen(args.dump_plan.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.dump_plan.c_str());
      return 1;
    }
    graph::PlannerOptions popts;
    popts.tp_size = args.parallel.t;
    const int P = args.parallel.p * std::max(args.parallel.v, 1);
    const std::int64_t per_stage = args.model.num_layers / P;
    std::fputs("[\n", out);
    for (int vs = 0; vs < P; ++vs) {
      const auto sp = graph::build_stage_plan(
          args.model, vs * per_stage, (vs + 1) * per_stage,
          /*has_embedding=*/vs == 0, /*has_head=*/vs == P - 1,
          args.parallel.recompute, popts);
      graph::dump_stage_plan_json(sp, args.model, out);
      std::fputs(vs + 1 < P ? ",\n" : "\n", out);
    }
    std::fputs("]\n", out);
    if (out != stdout) std::fclose(out);
    return 0;
  }

  core::EngineOptions options;
  options.model = args.model;
  options.parallel = args.parallel;
  options.global_batch = args.global_batch;
  options.optimizer = core::EngineOptions::Opt::kAdam;
  options.adam.lr = args.lr;
  options.grad_comm_dtype = args.grad_comm_dtype;
  options.overlap_grad_reduce = args.overlap_grad_reduce;
  options.grad_clip = args.clip;
  if (args.warmup > 0) {
    options.lr_schedule = optim::LrScheduleOptions{
        .peak_lr = args.lr,
        .min_lr = args.lr * 0.1f,
        .warmup_steps = args.warmup,
        .decay_steps = std::max<std::int64_t>(args.steps, args.warmup + 1)};
  }

  std::printf("model: %lldL/%lldh/%lld heads, vocab %lld, seq %lld (%.2fM params)"
              " — %s objective, %s weights\n",
              static_cast<long long>(args.model.num_layers),
              static_cast<long long>(args.model.hidden),
              static_cast<long long>(args.model.heads),
              static_cast<long long>(args.model.vocab),
              static_cast<long long>(args.model.seq),
              static_cast<double>(args.model.exact_params()) / 1e6,
              args.mlm ? "masked-LM" : "causal-LM",
              tensor::dtype_name(args.model.dtype));
  std::printf("parallelism: %s, global batch %lld, %d \"GPUs\"\n",
              args.parallel.str().c_str(),
              static_cast<long long>(args.global_batch),
              static_cast<int>(args.parallel.n()));

  data::SyntheticCorpus corpus(args.model.vocab, 101);
  data::TokenDataset dataset(
      corpus.generate(std::max<std::int64_t>(args.model.seq * 512, 8192)),
      args.model.seq);

  // Arm the observability plane before any rank runs: full tracing when a
  // trace path is given, metrics-only when just the metrics path is.
  if (!args.trace_out.empty()) {
    obs::Tracer::instance().set_mode(obs::TraceMode::kFull);
  } else if (!args.metrics_out.empty()) {
    obs::Tracer::instance().set_mode(obs::TraceMode::kMetricsOnly);
  }

  std::shared_ptr<dist::FaultPlan> plan;
  bool plan_has_hang = false;
  if (!args.fault_plan.empty()) {
    plan = std::make_shared<dist::FaultPlan>(args.fault_seed);
    if (!parse_fault_plan(args.fault_plan, *plan, plan_has_hang)) {
      std::fprintf(stderr, "bad --fault-plan '%s' (see header comment)\n",
                   args.fault_plan.c_str());
      return 1;
    }
  }
  // A hung rank is only detectable when the watchdog is armed — a hang spec
  // without a timeout would deadlock the world, so auto-arm a default.
  if (plan_has_hang && args.op_timeout_ms == 0) args.op_timeout_ms = 2000;

  // Straggler monitor: each rank feeds its busy/wait split after every step;
  // a latched verdict is thrown by enforce() and diagnosed by the supervisor.
  std::shared_ptr<ft::HealthMonitor> monitor;
  if (args.health && !args.ckpt_dir.empty()) {
    ft::HealthOptions hopts;
    hopts.straggler_ratio = args.straggler_ratio;
    hopts.straggler_patience = args.straggler_patience;
    monitor = std::make_shared<ft::HealthMonitor>(hopts);
  }

  // The SPMD training body. `committed_step` > 0 means a committed
  // checkpoint exists under ckpt_dir (resolved by the supervisor, or 0 on
  // an unsupervised run); `attempt` > 0 means we are recovering. When the
  // supervisor evicted a rank the world arrives one size smaller than the
  // requested layout: merge the committed shards of the original layout into
  // one serial checkpoint and resume at (1, 1, 1) — the elastic path.
  const auto body = [&](dist::Comm& comm, std::uint64_t committed_step,
                        int attempt) {
    const bool elastic = comm.size() != static_cast<int>(args.parallel.n());
    core::EngineOptions run_options = options;
    if (elastic) {
      run_options.parallel =
          core::ParallelConfig{.p = 1, .t = 1, .d = 1, .b = args.parallel.b};
    }
    core::PtdpEngine engine(comm, run_options);
    int start_step = 0;
    if (elastic) {
      const auto best = ckpt::find_latest_valid_checkpoint(args.ckpt_dir);
      const auto [src_p, src_t] =
          best ? shard_layout(best->manifest) : std::pair<int, int>{1, 1};
      if (best && src_p * src_t > 1) {
        const std::string merged_dir = args.ckpt_dir + "/elastic-merged";
        if (comm.rank() == 0) {
          std::filesystem::create_directories(merged_dir);
          ckpt::merge_shards(best->shard_dir, src_p, src_t,
                             ckpt::shard_path(merged_dir, 0, 0, 0));
        }
        comm.barrier();
        start_step = static_cast<int>(engine.load_resharded(merged_dir));
        if (comm.rank() == 0) {
          std::printf("resumed from committed checkpoint at step %d "
                      "(recovery, resharded %dx%d -> serial)\n",
                      start_step, src_p, src_t);
        }
      } else if (best) {
        start_step = static_cast<int>(engine.load_checkpoint(args.ckpt_dir));
        if (comm.rank() == 0) {
          std::printf("resumed from committed checkpoint at step %d (recovery)\n",
                      start_step);
        }
      }
    } else if (!args.ckpt_dir.empty() && committed_step > 0) {
      start_step = static_cast<int>(engine.load_checkpoint(args.ckpt_dir));
      if (comm.rank() == 0) {
        std::printf("resumed from committed checkpoint at step %d%s\n",
                    start_step, attempt > 0 ? " (recovery)" : "");
      }
    }
    if (monitor) monitor->heartbeat(comm.world_rank());
    data::ShardedLoader loader(dataset, args.global_batch, args.parallel.b,
                               run_options.parallel.d,
                               engine.groups().coord().data, 77);
    for (int step = start_step; step < args.steps; ++step) {
      auto mbs = loader.next_batch(step);
      if (args.mlm) {
        for (auto& mb : mbs) {
          data::apply_mlm_masking(mb, args.model.vocab, {}, args.model.seed);
        }
      }
      engine.train_step(mbs);
      const auto& stats = engine.last_stats();
      if (monitor) {
        monitor->record_step(comm.world_rank(), static_cast<std::uint64_t>(step),
                             stats.step_seconds, stats.busy_seconds,
                             stats.comm_wait_seconds);
        monitor->heartbeat(comm.world_rank());
        monitor->enforce();  // throws DegradedWorldError on a latched verdict
      }
      if (comm.rank() == 0 &&
          (step % args.log_every == 0 || step == args.steps - 1)) {
        std::printf("step %4lld  loss %.4f  lr %.2e  %.0f tok/s  %.0f ms/step  "
                    "peak %.1f MB%s\n",
                    static_cast<long long>(stats.step), stats.loss, stats.lr,
                    stats.tokens_per_second, stats.step_seconds * 1e3,
                    static_cast<double>(stats.peak_memory_bytes) / 1e6,
                    args.clip > 0
                        ? (" grad-norm " + std::to_string(stats.grad_norm)).c_str()
                        : "");
      }
      if (args.eval_every > 0 && (step + 1) % args.eval_every == 0) {
        // Held-out slice: draw from steps the trainer will never visit.
        auto eval_mbs = loader.next_batch(1'000'000 + step);
        const float eval_loss = engine.evaluate(eval_mbs);
        if (comm.rank() == 0) {
          std::printf("          eval loss %.4f (dropout off)\n", eval_loss);
        }
      }
      if (args.ckpt_every > 0 && !args.ckpt_dir.empty() &&
          (step + 1) % args.ckpt_every == 0) {
        engine.save_checkpoint(args.ckpt_dir,
                               static_cast<std::uint64_t>(step + 1));
      }
    }
    if (!args.ckpt_dir.empty()) {
      engine.save_checkpoint(args.ckpt_dir,
                             static_cast<std::uint64_t>(args.steps));
    }
  };

  const int world_size = static_cast<int>(args.parallel.n());
  if (!args.ckpt_dir.empty()) {
    std::filesystem::create_directories(args.ckpt_dir);
    ft::SupervisorOptions sup;
    sup.ckpt_dir = args.ckpt_dir;
    sup.max_restarts = args.max_restarts;
    sup.fault_plan = plan;
    sup.health = monitor;
    sup.timeouts.op_timeout_ms = args.op_timeout_ms;
    sup.escalation.restarts_before_evict = args.restarts_before_evict;
    ft::TrainSupervisor supervisor(sup);
    const auto& stats = supervisor.run(
        [&](const ft::RestartContext& ctx) {
          // Elastic relayout: once any rank is evicted, fall back to a
          // 1-rank serial world — the body reshards the committed
          // checkpoint to match (see DESIGN.md §15).
          const int n = ctx.evicted.empty() ? world_size : 1;
          return std::make_unique<dist::World>(n);
        },
        body);
    if (stats.failures > 0) {
      std::printf("recovered from %d failure(s): %llu step(s) of work lost, "
                  "%.2f s spent recovering\n",
                  stats.failures,
                  static_cast<unsigned long long>(stats.steps_lost),
                  stats.total_recovery_seconds);
      for (const auto& e : stats.events) {
        std::printf("  attempt %d: rank %d %s%s: %s -> resumed at step %llu\n",
                    e.attempt, e.victim, ft::health_name(e.victim_health),
                    e.evicted ? " (evicted)" : "", e.cause.c_str(),
                    static_cast<unsigned long long>(e.resumed_step));
      }
      std::printf("self-healing: ft.restarts_total %d  ft.evictions_total %d  "
                  "ft.detect_latency_steps %llu  ft.last_recovery_ms %.1f\n",
                  stats.failures, stats.evictions,
                  static_cast<unsigned long long>(
                      stats.events.back().detect_latency_steps),
                  stats.last_recovery_seconds * 1e3);
    }
  } else {
    // No checkpoint dir -> nothing to recover from; run unsupervised.
    dist::World world(world_size);
    if (plan) world.set_fault_plan(plan);
    world.run([&](dist::Comm& comm) { body(comm, 0, 0); });
  }
  if (!args.trace_out.empty()) {
    auto& tracer = obs::Tracer::instance();
    if (!tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %llu event(s) recorded (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(tracer.events_recorded()),
                static_cast<unsigned long long>(tracer.events_dropped()),
                args.trace_out.c_str());
    std::fputs(obs::format_report(obs::analyze(tracer)).c_str(), stdout);
  }
  if (!args.metrics_out.empty()) {
    if (!obs::MetricsRegistry::instance().write_json(args.metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics -> %s\n", args.metrics_out.c_str());
  }
  if (!args.trace_out.empty() || !args.metrics_out.empty()) {
    std::printf("per-rank comm volumes (bytes sent/received):\n");
    for (const auto& row : obs::MetricsRegistry::instance().comm_report()) {
      const auto& s = row.stats;
      std::printf("  rank %2d %-10s p2p %6llu msg %10llu B out / %10llu B in"
                  "  coll %5llu op %10llu B out / %10llu B in\n",
                  row.rank, row.group.c_str(),
                  static_cast<unsigned long long>(s.p2p_sends),
                  static_cast<unsigned long long>(s.p2p_send_bytes),
                  static_cast<unsigned long long>(s.p2p_recv_bytes),
                  static_cast<unsigned long long>(s.collective_ops),
                  static_cast<unsigned long long>(s.coll_send_bytes),
                  static_cast<unsigned long long>(s.coll_recv_bytes));
    }
  }
  std::printf("training complete.\n");
  return 0;
}
