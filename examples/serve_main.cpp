// Serving front-end: run the continuous-batching engine under a seeded
// closed-loop load, optionally across tensor-parallel ranks, and validate
// every response against the full-forward oracle (model::generate with the
// KV cache disabled) — the engine's paged, preempted, batched decode must
// produce bit-identical token streams. With --trace-out/--metrics-out the
// run records serve.* spans (of the engine loop; the oracle replays record
// metrics only) and metrics (serve.step spans, per-request
// serve.request_done instants, serve.kv.peak_bytes, TTFT histograms, ...)
// in the same ptdp-trace-v1 format train_main emits, so
// tools/validate_trace.py can gate on them in CI.
//
// --weight-dtype selects the serving weight format (DESIGN.md §17): f32,
// bf16, or the weight-only quantized int8 / q4 formats. Quantized runs
// build the stage in f32, quantize every linear once
// (GptStage::quantize_for_serving), and validate against a SECOND fp32
// stage (same config + seed => identical initial weights): int8 greedy
// decode must be token-identical to the fp32 oracle; q4 reports
// teacher-forced top-1 agreement (gated at 0.90). --dump-plan writes the
// decode plans the stage executes (the evaluation forward, one "attention"
// node per layer; the plan is the same at every weight dtype — the linear
// modules pick the quantized GEMM themselves); --save/load-quant-ckpt exercise the
// dtype-tagged quantized checkpoint on the shared commit protocol.
//
//   serve_main [--users N] [--requests N] [--capacity-blocks N] [--tp N]
//              [--seed N] [--no-check] [--trace-out F] [--metrics-out F]
//              [--weight-dtype f32|bf16|int8|q4] [--group-size N]
//              [--dump-plan F] [--save-quant-ckpt D] [--load-quant-ckpt D]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "ptdp/dist/world.hpp"
#include "ptdp/graph/passes.hpp"
#include "ptdp/model/generate.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/quant/quant.hpp"
#include "ptdp/serve/loadgen.hpp"

using namespace ptdp;

namespace {

struct Args {
  std::int64_t users = 16;
  std::int64_t requests = 2;
  std::int64_t capacity_blocks = 96;
  std::int64_t tp = 1;
  std::uint64_t seed = 7;
  bool check = true;
  std::string trace_out;
  std::string metrics_out;
  std::string weight_dtype = "f32";
  std::int64_t group_size = 64;
  std::string dump_plan;
  std::string save_quant_ckpt;
  std::string load_quant_ckpt;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](std::int64_t& out) {
      if (i + 1 >= argc) return false;
      out = std::atoll(argv[++i]);
      return true;
    };
    if (flag == "--users") {
      if (!next(a.users)) return false;
    } else if (flag == "--requests") {
      if (!next(a.requests)) return false;
    } else if (flag == "--capacity-blocks") {
      if (!next(a.capacity_blocks)) return false;
    } else if (flag == "--tp") {
      if (!next(a.tp)) return false;
    } else if (flag == "--seed") {
      std::int64_t s;
      if (!next(s)) return false;
      a.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--no-check") {
      a.check = false;
    } else if (flag == "--trace-out") {
      if (i + 1 >= argc) return false;
      a.trace_out = argv[++i];
    } else if (flag == "--metrics-out") {
      if (i + 1 >= argc) return false;
      a.metrics_out = argv[++i];
    } else if (flag == "--weight-dtype") {
      if (i + 1 >= argc) return false;
      a.weight_dtype = argv[++i];
    } else if (flag == "--group-size") {
      if (!next(a.group_size)) return false;
    } else if (flag == "--dump-plan") {
      if (i + 1 >= argc) return false;
      a.dump_plan = argv[++i];
    } else if (flag == "--save-quant-ckpt") {
      if (i + 1 >= argc) return false;
      a.save_quant_ckpt = argv[++i];
    } else if (flag == "--load-quant-ckpt") {
      if (i + 1 >= argc) return false;
      a.load_quant_ckpt = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;

  if (!args.trace_out.empty()) {
    obs::Tracer::instance().set_mode(obs::TraceMode::kFull);
  } else if (!args.metrics_out.empty()) {
    obs::Tracer::instance().set_mode(obs::TraceMode::kMetricsOnly);
  }

  const bool quantized = args.weight_dtype == "int8" || args.weight_dtype == "q4";
  if (!quantized && args.weight_dtype != "f32" && args.weight_dtype != "bf16") {
    std::fprintf(stderr, "unknown --weight-dtype %s (f32|bf16|int8|q4)\n",
                 args.weight_dtype.c_str());
    return 2;
  }
  const tensor::QuantKind quant_kind = args.weight_dtype == "q4"
                                           ? tensor::QuantKind::kQ4
                                           : tensor::QuantKind::kInt8;

  model::GptConfig config;
  config.num_layers = 2;
  config.hidden = 32;
  config.heads = 4;
  config.vocab = 32;
  config.seq = 48;
  config.dropout = 0.0f;
  config.seed = 41;
  if (args.weight_dtype == "bf16") config.dtype = tensor::DType::kBf16;

  std::printf("serving a %lld-layer GPT to %lld users x %lld requests "
              "(tp=%lld, kv capacity %lld blocks, weights %s)...\n",
              static_cast<long long>(config.num_layers),
              static_cast<long long>(args.users),
              static_cast<long long>(args.requests),
              static_cast<long long>(args.tp),
              static_cast<long long>(args.capacity_blocks),
              args.weight_dtype.c_str());

  std::FILE* plan_file = nullptr;
  if (!args.dump_plan.empty()) {
    plan_file = std::fopen(args.dump_plan.c_str(), "w");
    if (plan_file == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", args.dump_plan.c_str());
      return 2;
    }
  }

  int mismatches = 0;
  auto body = [&](dist::Comm& comm) {
    model::GptStage stage(
        config, comm, model::StageSpec{true, true, 0, config.num_layers, false});

    // The fp32 accuracy oracle: same config + seed => identical initial
    // weights, kept at full precision while `stage` is quantized below.
    std::optional<model::GptStage> oracle_stage;
    if (quantized) {
      if (args.check) {
        oracle_stage.emplace(config, comm,
                             model::StageSpec{true, true, 0, config.num_layers,
                                              false});
      }
      const model::QuantizeReport report =
          stage.quantize_for_serving(quant_kind, args.group_size);
      if (comm.rank() == 0) {
        std::printf("quantized %d linears to %s: %lld weight bytes -> %lld "
                    "(%.2fx smaller)\n",
                    report.linears, args.weight_dtype.c_str(),
                    static_cast<long long>(report.weight_bytes_f32),
                    static_cast<long long>(report.weight_bytes),
                    report.weight_bytes > 0
                        ? static_cast<double>(report.weight_bytes_f32) /
                              static_cast<double>(report.weight_bytes)
                        : 0.0);
      }
      if (!args.save_quant_ckpt.empty()) {
        quant::save_quantized_checkpoint(args.save_quant_ckpt, 0, comm,
                                         stage.quantized_weights(), quant_kind);
        if (comm.rank() == 0) {
          std::printf("quantized checkpoint -> %s\n",
                      args.save_quant_ckpt.c_str());
        }
      }
      if (!args.load_quant_ckpt.empty()) {
        const auto step = quant::load_quantized_checkpoint(
            args.load_quant_ckpt, comm, stage.quantized_weights(), quant_kind);
        PTDP_CHECK(step.has_value())
            << "no committed " << args.weight_dtype << " checkpoint under "
            << args.load_quant_ckpt;
        if (comm.rank() == 0) {
          std::printf("quantized checkpoint <- %s (step %llu)\n",
                      args.load_quant_ckpt.c_str(),
                      static_cast<unsigned long long>(*step));
        }
      }
    }

    if (plan_file != nullptr && comm.rank() == 0) {
      // The decode plans the engine executes ("linear_fwd" nodes run the
      // quantized GEMM when the stage is quantized).
      graph::dump_stage_plan_json(stage.decode_plan(), config, plan_file);
      std::fclose(plan_file);
      std::printf("plan -> %s\n", args.dump_plan.c_str());
    }

    serve::EngineOptions eo;
    eo.block_tokens = 8;
    eo.capacity_blocks = args.capacity_blocks;
    eo.max_batch_tokens = 64;
    eo.prefill_chunk = 8;
    eo.max_running = 64;
    eo.record_metrics = comm.rank() == 0;  // obs values are rank-identical
    serve::ServeEngine engine(stage, eo);

    serve::LoadGenOptions lo;
    lo.users = args.users;
    lo.requests_per_user = args.requests;
    lo.prompt_min = 3;
    lo.prompt_max = 12;
    lo.max_new_min = 4;
    lo.max_new_max = 16;
    lo.think_steps_max = 3;
    lo.window = config.seq;
    lo.vocab = config.vocab;
    lo.seed = args.seed;
    // The quantized accuracy gates are statements about GREEDY decode
    // (§17 accuracy policy): sampled requests draw through the inverse CDF
    // of *different* logits, so token equality is not the right contract
    // for them. Keep the default greedy/sampled mix for f32/bf16.
    if (quantized) lo.sampled_fraction = 0.0;
    serve::LoadGen lg(lo);

    std::int64_t step = 0;
    while (!lg.done()) {
      PTDP_CHECK_LT(step, 100000) << "serving loop did not drain";
      lg.tick(step, engine);
      const auto done = engine.step();
      lg.on_finished(done, step);
      ++step;
    }

    // The trace is the engine loop's. The oracle replays below re-run the
    // full forward once per request (twice when quantized) and would wrap
    // the span rings over it; metrics keep counting.
    if (!args.trace_out.empty()) {
      obs::Tracer::instance().set_mode(obs::TraceMode::kMetricsOnly);
    }

    const auto& st = engine.stats();
    if (comm.rank() == 0) {
      std::printf("completed %lld requests in %lld engine steps "
                  "(%lld tokens, peak %lld concurrent, %lld preemptions)\n",
                  static_cast<long long>(st.completed),
                  static_cast<long long>(st.steps),
                  static_cast<long long>(st.generated_tokens),
                  static_cast<long long>(st.peak_running),
                  static_cast<long long>(st.preemptions));
    }

    if (args.check) {
      // Replay every request through the full-forward path of the SAME
      // stage: the engine's paged, preempted, batched decode must be
      // bit-identical to it at any weight dtype. generate() is collective
      // over the tensor group, so all ranks replay.
      for (const auto& fin : lg.finished()) {
        const serve::Request& req = lg.request(fin.id);
        model::GenerateOptions oracle_opts = req.options;
        oracle_opts.use_kv_cache = false;
        oracle_opts.max_new_tokens =
            static_cast<std::int64_t>(fin.tokens.size());
        const auto oracle = model::generate(stage, req.prompt, oracle_opts);
        const bool ok =
            std::equal(fin.tokens.begin(), fin.tokens.end(),
                       oracle.begin() + static_cast<std::ptrdiff_t>(
                                            req.prompt.size()));
        if (!ok && comm.rank() == 0) {
          ++mismatches;
          std::fprintf(stderr, "request %llu: engine tokens != oracle\n",
                       static_cast<unsigned long long>(fin.id));
        }
      }
      if (comm.rank() == 0 && mismatches == 0) {
        std::printf("oracle check: %zu/%zu responses bit-identical to "
                    "full-forward decode\n",
                    lg.finished().size(), lg.finished().size());
      }
    }

    if (args.check && quantized &&
        quant_kind == tensor::QuantKind::kInt8) {
      // Accuracy gate (DESIGN.md §17): int8 greedy decode must pick the
      // SAME tokens the fp32 model picks — not bitwise logits, identical
      // argmax at every step.
      int int8_mismatches = 0;
      for (const auto& fin : lg.finished()) {
        const serve::Request& req = lg.request(fin.id);
        model::GenerateOptions oracle_opts = req.options;
        oracle_opts.use_kv_cache = false;
        oracle_opts.max_new_tokens =
            static_cast<std::int64_t>(fin.tokens.size());
        const auto oracle =
            model::generate(*oracle_stage, req.prompt, oracle_opts);
        const bool ok =
            std::equal(fin.tokens.begin(), fin.tokens.end(),
                       oracle.begin() + static_cast<std::ptrdiff_t>(
                                            req.prompt.size()));
        if (!ok) {
          ++int8_mismatches;
          if (comm.rank() == 0) {
            std::fprintf(stderr, "request %llu: int8 tokens != fp32 oracle\n",
                         static_cast<unsigned long long>(fin.id));
          }
        }
      }
      if (comm.rank() == 0) {
        mismatches += int8_mismatches;
        if (int8_mismatches == 0) {
          std::printf("oracle check: %zu/%zu responses token-identical to "
                      "the fp32 oracle\n",
                      lg.finished().size(), lg.finished().size());
        }
      }
    }

    if (args.check && quantized && quant_kind == tensor::QuantKind::kQ4) {
      // Q4 is gated on measured agreement, not exactness: teacher-force
      // the fp32 oracle's continuation through the quantized model and
      // count top-1 matches at every generated position.
      std::int64_t agree = 0, total = 0;
      Rng rng(0);  // unused for greedy picks
      for (const auto& fin : lg.finished()) {
        const serve::Request& req = lg.request(fin.id);
        model::GenerateOptions oracle_opts = req.options;
        oracle_opts.use_kv_cache = false;
        oracle_opts.max_new_tokens =
            static_cast<std::int64_t>(fin.tokens.size());
        const auto oracle =
            model::generate(*oracle_stage, req.prompt, oracle_opts);
        for (std::size_t p = req.prompt.size(); p < oracle.size(); ++p) {
          const std::vector<std::int32_t> prefix(oracle.begin(),
                                                 oracle.begin() +
                                                     static_cast<std::ptrdiff_t>(p));
          const tensor::Tensor logits = model::forward_logits(
              stage, prefix, static_cast<std::int64_t>(prefix.size()), 1);
          const auto row = logits.data();
          const std::int64_t v = logits.dim(-1);
          const std::int32_t pick = model::sample_token(
              std::span<const float>(
                  row.data() + (static_cast<std::int64_t>(prefix.size()) - 1) * v,
                  static_cast<std::size_t>(v)),
              oracle_opts, rng);
          agree += pick == oracle[p] ? 1 : 0;
          ++total;
        }
      }
      const double frac =
          total > 0 ? static_cast<double>(agree) / static_cast<double>(total)
                    : 1.0;
      if (comm.rank() == 0) {
        std::printf("q4 top-1 agreement with the fp32 oracle: %lld/%lld "
                    "(%.3f)\n",
                    static_cast<long long>(agree),
                    static_cast<long long>(total), frac);
        if (frac < 0.90) {
          std::fprintf(stderr, "FAIL: q4 top-1 agreement %.3f < 0.90\n", frac);
          ++mismatches;
        }
      }
    }
  };

  if (args.tp > 1) {
    dist::World world(static_cast<int>(args.tp));
    world.run(body);
  } else {
    dist::Comm solo = dist::Comm::solo();
    body(solo);
  }

  if (!args.trace_out.empty()) {
    auto& tracer = obs::Tracer::instance();
    if (!tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace -> %s\n", args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    if (!obs::MetricsRegistry::instance().write_json(args.metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics -> %s\n", args.metrics_out.c_str());
  }
  if (mismatches > 0) return 1;
  std::printf("done.\n");
  return 0;
}
