// Continuous-batching serving benchmark (DESIGN.md §16): a closed-loop,
// seeded load generator (64 simulated users) drives the ServeEngine over a
// small randomly-initialized GPT and we measure what a serving stack is
// judged on — sustained token throughput, time-to-first-token, and
// per-token (inter-token) latency at p50/p95/p99 — under two KV budgets:
// "steady" (capacity ample: pure continuous batching, no preemption) and
// "pressure" (capacity ~1/4 of peak demand: eviction/re-admission churn).
//
// The sweep runs once per weight dtype (f32 / bf16 / int8 / q4 — restrict
// with --weight-dtype) so BENCH_serving.json records decode tok/s and TTFT
// per dtype side by side, plus a §17 decode comparison on a wider
// (bandwidth-bound) model that gates int8 at >= 1.3x f32 throughput with
// greedy output token-identical. Writes BENCH_serving.json.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ptdp/runtime/stopwatch.hpp"
#include "ptdp/serve/loadgen.hpp"

using namespace ptdp;

namespace {

model::GptConfig small_config() {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 64;
  c.heads = 4;
  c.vocab = 64;
  c.seq = 64;
  c.dropout = 0.0f;
  c.seed = 7;
  return c;
}

struct Pct {
  double p50 = 0, p95 = 0, p99 = 0;
};

Pct percentiles(std::vector<double> v) {
  Pct p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

// A freshly initialized stage holding its weights in `dtype`. Same config
// and seed every time, so the f32 masters are identical across dtypes and
// the quantized runs are true requantizations of the same model.
std::unique_ptr<model::GptStage> make_stage(const model::GptConfig& base,
                                            const std::string& dtype,
                                            dist::Comm& comm,
                                            std::int64_t group_size = 64) {
  model::GptConfig c = base;
  if (dtype == "bf16") c.dtype = tensor::DType::kBf16;
  auto stage = std::make_unique<model::GptStage>(
      c, comm, model::StageSpec{true, true, 0, c.num_layers, false});
  if (dtype == "int8" || dtype == "q4") {
    stage->quantize_for_serving(
        dtype == "q4" ? tensor::QuantKind::kQ4 : tensor::QuantKind::kInt8,
        group_size);
  }
  return stage;
}

struct ScenarioResult {
  const char* name = "";
  std::string weight_dtype = "f32";
  std::int64_t capacity_blocks = 0;
  std::int64_t requests = 0;
  std::int64_t tokens = 0;
  std::int64_t steps = 0;
  std::int64_t peak_running = 0;
  std::int64_t preemptions = 0;
  double wall_s = 0;
  double tokens_per_s = 0;
  Pct ttft_ms, tbt_ms, e2e_ms;
};

ScenarioResult run_scenario(const char* name, model::GptStage& stage,
                            std::int64_t capacity_blocks,
                            double sampled_fraction = 0.5) {
  serve::EngineOptions eo;
  eo.block_tokens = 8;
  eo.capacity_blocks = capacity_blocks;
  eo.max_batch_tokens = 160;
  eo.prefill_chunk = 16;
  eo.max_running = 80;
  eo.record_metrics = false;  // pure timing run
  serve::ServeEngine engine(stage, eo);

  serve::LoadGenOptions lo;
  lo.users = 64;
  lo.requests_per_user = 3;
  lo.prompt_min = 4;
  lo.prompt_max = 16;
  lo.max_new_min = 16;
  lo.max_new_max = 32;
  lo.think_steps_max = 2;
  lo.window = stage.config().seq;
  lo.vocab = stage.config().vocab;
  lo.sampled_fraction = sampled_fraction;
  lo.seed = 13;
  serve::LoadGen lg(lo);

  const std::int64_t t0 = steady_now_ns();
  std::int64_t step = 0;
  while (!lg.done()) {
    PTDP_CHECK_LT(step, 200000)
        << "serving loop did not drain: waiting " << engine.waiting()
        << " running " << engine.running() << " outstanding "
        << lg.outstanding() << " submitted " << lg.submitted() << " completed "
        << engine.stats().completed << " free blocks "
        << engine.kv().free_blocks();
    lg.tick(step, engine);
    const auto done = engine.step();
    lg.on_finished(done, step);
    ++step;
  }

  ScenarioResult r;
  r.name = name;
  r.capacity_blocks = capacity_blocks;
  r.wall_s = static_cast<double>(steady_now_ns() - t0) / 1e9;
  r.requests = static_cast<std::int64_t>(lg.finished().size());
  r.steps = engine.stats().steps;
  r.peak_running = engine.stats().peak_running;
  r.preemptions = engine.stats().preemptions;
  std::vector<double> ttft, tbt, e2e;
  for (const auto& fin : lg.finished()) {
    r.tokens += static_cast<std::int64_t>(fin.tokens.size());
    if (!fin.token_ms.empty()) ttft.push_back(fin.first_token_ms - fin.submit_ms);
    for (std::size_t i = 1; i < fin.token_ms.size(); ++i) {
      tbt.push_back(fin.token_ms[i] - fin.token_ms[i - 1]);
    }
    e2e.push_back(fin.finish_ms - fin.submit_ms);
  }
  r.tokens_per_s = static_cast<double>(r.tokens) / r.wall_s;
  r.ttft_ms = percentiles(std::move(ttft));
  r.tbt_ms = percentiles(std::move(tbt));
  r.e2e_ms = percentiles(std::move(e2e));
  return r;
}

void print_row(const ScenarioResult& r) {
  std::printf("%-4s %-9s cap=%4lld  %4lld req %6lld tok  %7.0f tok/s  peak %2lld seq"
              "  %4lld evict  ttft p50/p95/p99 %.2f/%.2f/%.2f ms"
              "  tbt %.2f/%.2f/%.2f ms\n",
              r.weight_dtype.c_str(), r.name,
              static_cast<long long>(r.capacity_blocks),
              static_cast<long long>(r.requests),
              static_cast<long long>(r.tokens), r.tokens_per_s,
              static_cast<long long>(r.peak_running),
              static_cast<long long>(r.preemptions), r.ttft_ms.p50,
              r.ttft_ms.p95, r.ttft_ms.p99, r.tbt_ms.p50, r.tbt_ms.p95,
              r.tbt_ms.p99);
}

void write_scenario(std::FILE* f, const ScenarioResult& r, bool last) {
  std::fprintf(f, "    {\n");
  std::fprintf(f, "      \"name\": \"%s\",\n", r.name);
  std::fprintf(f, "      \"weight_dtype\": \"%s\",\n", r.weight_dtype.c_str());
  std::fprintf(f, "      \"capacity_blocks\": %lld,\n",
               static_cast<long long>(r.capacity_blocks));
  std::fprintf(f, "      \"requests\": %lld,\n",
               static_cast<long long>(r.requests));
  std::fprintf(f, "      \"generated_tokens\": %lld,\n",
               static_cast<long long>(r.tokens));
  std::fprintf(f, "      \"engine_steps\": %lld,\n",
               static_cast<long long>(r.steps));
  std::fprintf(f, "      \"peak_concurrent_sequences\": %lld,\n",
               static_cast<long long>(r.peak_running));
  std::fprintf(f, "      \"preemptions\": %lld,\n",
               static_cast<long long>(r.preemptions));
  std::fprintf(f, "      \"wall_s\": %.4f,\n", r.wall_s);
  std::fprintf(f, "      \"tokens_per_s\": %.1f,\n", r.tokens_per_s);
  std::fprintf(f,
               "      \"ttft_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n",
               r.ttft_ms.p50, r.ttft_ms.p95, r.ttft_ms.p99);
  std::fprintf(f,
               "      \"per_token_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n",
               r.tbt_ms.p50, r.tbt_ms.p95, r.tbt_ms.p99);
  std::fprintf(f,
               "      \"e2e_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}\n",
               r.e2e_ms.p50, r.e2e_ms.p95, r.e2e_ms.p99);
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

// §17 decode comparison on a bandwidth-bound model (wider hidden, few
// users) where decode steps are dominated by streaming weights through
// small-m GEMMs: all-greedy load, f32 vs int8, gated on token-identical
// output and >= 1.3x throughput.
struct CompareResult {
  ScenarioResult f32, int8;
  double speedup = 0.0;
  bool token_identical = false;
};

CompareResult run_decode_comparison(dist::Comm& comm) {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 384;
  c.heads = 8;
  c.vocab = 64;
  c.seq = 96;
  c.dropout = 0.0f;
  c.seed = 7;
  std::printf("== decode dtype comparison, %lld-layer/%lld-hidden GPT, "
              "4 greedy users ==\n",
              static_cast<long long>(c.num_layers),
              static_cast<long long>(c.hidden));

  // Tight groups (16 rows per scale) halve the per-weight error twice over
  // the serving default: at this width the greedy argmax must not move, and
  // the scale reloads cost ~nothing against the payload stream.
  constexpr std::int64_t kCompareGroup = 16;
  auto run = [&](const std::string& dtype) {
    auto stage = make_stage(c, dtype, comm, kCompareGroup);
    serve::EngineOptions eo;
    eo.block_tokens = 8;
    eo.capacity_blocks = 256;
    eo.max_batch_tokens = 96;
    eo.prefill_chunk = 16;
    eo.max_running = 8;
    eo.record_metrics = false;
    serve::ServeEngine engine(*stage, eo);

    serve::LoadGenOptions lo;
    lo.users = 4;
    lo.requests_per_user = 2;
    lo.prompt_min = 8;
    lo.prompt_max = 16;
    lo.max_new_min = 24;
    lo.max_new_max = 32;
    lo.think_steps_max = 0;
    lo.window = c.seq;
    lo.vocab = c.vocab;
    lo.sampled_fraction = 0.0;  // greedy only: dtypes must agree token-for-token
    lo.seed = 17;
    serve::LoadGen lg(lo);

    const std::int64_t t0 = steady_now_ns();
    std::int64_t step = 0;
    while (!lg.done()) {
      PTDP_CHECK_LT(step, 200000) << "comparison loop did not drain";
      lg.tick(step, engine);
      const auto done = engine.step();
      lg.on_finished(done, step);
      ++step;
    }
    ScenarioResult r;
    r.name = "decode";
    r.weight_dtype = dtype;
    r.capacity_blocks = eo.capacity_blocks;
    r.wall_s = static_cast<double>(steady_now_ns() - t0) / 1e9;
    r.requests = static_cast<std::int64_t>(lg.finished().size());
    for (const auto& fin : lg.finished()) {
      r.tokens += static_cast<std::int64_t>(fin.tokens.size());
    }
    r.tokens_per_s = static_cast<double>(r.tokens) / r.wall_s;
    std::map<std::uint64_t, std::vector<std::int32_t>> by_id;
    for (const auto& fin : lg.finished()) by_id[fin.id] = fin.tokens;
    std::printf("%-4s decode   %4lld req %6lld tok  %7.0f tok/s  %.3f s\n",
                dtype.c_str(), static_cast<long long>(r.requests),
                static_cast<long long>(r.tokens), r.tokens_per_s, r.wall_s);
    return std::make_pair(r, by_id);
  };

  auto [f32_r, f32_tokens] = run("f32");
  auto [int8_r, int8_tokens] = run("int8");
  CompareResult cmp;
  cmp.f32 = f32_r;
  cmp.int8 = int8_r;
  cmp.speedup = int8_r.tokens_per_s / f32_r.tokens_per_s;
  cmp.token_identical = f32_tokens == int8_tokens;
  std::printf("int8 decode speedup vs f32: %.2fx, token-identical: %s\n",
              cmp.speedup, cmp.token_identical ? "yes" : "no");
  return cmp;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only_dtype;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--weight-dtype") == 0 && i + 1 < argc) {
      only_dtype = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--weight-dtype f32|bf16|int8|q4]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<std::string> dtypes = {"f32", "bf16", "int8", "q4"};
  if (!only_dtype.empty()) {
    if (std::find(dtypes.begin(), dtypes.end(), only_dtype) == dtypes.end()) {
      std::fprintf(stderr, "unknown --weight-dtype '%s'\n", only_dtype.c_str());
      return 2;
    }
    dtypes = {only_dtype};
  }

  const model::GptConfig config = small_config();
  dist::Comm solo = dist::Comm::solo();
  std::printf("== continuous-batching serving, %lld-layer/%lld-hidden GPT, "
              "64 closed-loop users ==\n",
              static_cast<long long>(config.num_layers),
              static_cast<long long>(config.hidden));

  std::vector<ScenarioResult> results;
  for (const std::string& dtype : dtypes) {
    auto stage = make_stage(config, dtype, solo);
    // Ample KV: every live sequence fits (worst case 6 blocks x 80 running).
    ScenarioResult steady = run_scenario("steady", *stage, 512);
    steady.weight_dtype = dtype;
    print_row(steady);
    // Scarce KV: ~1/4 of peak demand; progress depends on eviction + resume.
    ScenarioResult pressure = run_scenario("pressure", *stage, 120);
    pressure.weight_dtype = dtype;
    print_row(pressure);

    if (steady.peak_running < 64) {
      std::fprintf(stderr,
                   "FAIL: %s steady scenario peaked at %lld concurrent "
                   "sequences (need >= 64)\n",
                   dtype.c_str(), static_cast<long long>(steady.peak_running));
      return 1;
    }
    if (pressure.preemptions == 0) {
      std::fprintf(stderr, "FAIL: %s pressure scenario never preempted\n",
                   dtype.c_str());
      return 1;
    }
    // Same seeded load, same model: eviction churn may change latency but
    // never content, so both scenarios must generate the same token total.
    if (pressure.tokens != steady.tokens) {
      std::fprintf(stderr,
                   "FAIL: %s pressure generated %lld tokens vs steady %lld — "
                   "preemption changed decode content\n",
                   dtype.c_str(), static_cast<long long>(pressure.tokens),
                   static_cast<long long>(steady.tokens));
      return 1;
    }
    results.push_back(std::move(steady));
    results.push_back(std::move(pressure));
  }

  // The §17 acceptance gate needs both dtypes, so it only runs on a full
  // sweep (no --weight-dtype restriction).
  CompareResult cmp;
  const bool ran_comparison = only_dtype.empty();
  if (ran_comparison) {
    cmp = run_decode_comparison(solo);
    if (!cmp.token_identical) {
      std::fprintf(stderr,
                   "FAIL: int8 greedy decode is not token-identical to f32\n");
      return 1;
    }
    if (cmp.speedup < 1.3) {
      std::fprintf(stderr, "FAIL: int8 decode speedup %.2fx < 1.3x\n",
                   cmp.speedup);
      return 1;
    }
  }

  std::FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"sec_serving\",\n");
    std::fprintf(f, "  \"model\": {\"layers\": %lld, \"hidden\": %lld, "
                 "\"heads\": %lld, \"vocab\": %lld, \"seq\": %lld},\n",
                 static_cast<long long>(config.num_layers),
                 static_cast<long long>(config.hidden),
                 static_cast<long long>(config.heads),
                 static_cast<long long>(config.vocab),
                 static_cast<long long>(config.seq));
    std::fprintf(f, "  \"users\": 64,\n");
    std::fprintf(f, "  \"scenarios\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      write_scenario(f, results[i], i + 1 == results.size());
    }
    if (ran_comparison) {
      std::fprintf(f, "  ],\n");
      std::fprintf(f, "  \"decode_dtype_comparison\": {\n");
      std::fprintf(f, "    \"model\": {\"layers\": 2, \"hidden\": 384, "
                   "\"heads\": 8, \"vocab\": 64, \"seq\": 96},\n");
      std::fprintf(f, "    \"users\": 4,\n");
      std::fprintf(f, "    \"sampling\": \"greedy\",\n");
      std::fprintf(f, "    \"int8_group_size\": 16,\n");
      std::fprintf(f, "    \"f32_tokens_per_s\": %.1f,\n", cmp.f32.tokens_per_s);
      std::fprintf(f, "    \"int8_tokens_per_s\": %.1f,\n",
                   cmp.int8.tokens_per_s);
      std::fprintf(f, "    \"int8_decode_speedup_vs_f32\": %.2f,\n",
                   cmp.speedup);
      std::fprintf(f, "    \"token_identical\": %s\n",
                   cmp.token_identical ? "true" : "false");
      std::fprintf(f, "  }\n}\n");
    } else {
      std::fprintf(f, "  ]\n}\n");
    }
    std::fclose(f);
    std::printf("wrote BENCH_serving.json\n");
  }
  return 0;
}
