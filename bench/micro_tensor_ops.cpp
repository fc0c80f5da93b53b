// Google-benchmark microbenchmarks for the tensor kernels: GEMM shapes
// that appear in a transformer layer, and the §4.2 fused kernels against
// their unfused compositions (measured, on this CPU substrate).
//
// Besides the human-readable google-benchmark table, main() runs a fixed
// sweep of (op, shape, intra-op threads) and writes BENCH_tensor_ops.json
// to the working directory so the perf trajectory is machine-comparable
// across PRs. The sweep includes the seed's scalar GEMM (compiled here with
// the project-default flags, exactly like the pre-backend kernel) as the
// baseline the speedups are measured against.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace {

using namespace ptdp;
using tensor::Tensor;

void BM_MatmulSquare(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulTransformerShapes(benchmark::State& state) {
  // (rows, h) -> QKV-like GEMM rows x h x 3h.
  const std::int64_t rows = state.range(0);
  const std::int64_t h = state.range(1);
  Rng rng(2);
  Tensor x = Tensor::randn({rows, h}, rng);
  Tensor w = Tensor::randn({h, 3 * h}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(x, w));
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * h * 3 * h);
}
BENCHMARK(BM_MatmulTransformerShapes)->Args({64, 64})->Args({128, 128})->Args({512, 256});

void BM_BiasGeluUnfused(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn({n, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::gelu(tensor::add_bias(x, bias)));
  }
  state.SetBytesProcessed(state.iterations() * n * n * sizeof(float) * 4);
}
BENCHMARK(BM_BiasGeluUnfused)->Arg(256);

void BM_BiasGeluFused(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn({n, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::fused_bias_gelu(x, bias));
  }
  state.SetBytesProcessed(state.iterations() * n * n * sizeof(float) * 2);
}
BENCHMARK(BM_BiasGeluFused)->Arg(256);

void BM_AttentionFused(benchmark::State& state) {
  const auto s = state.range(0);
  Rng rng(4);
  Tensor q = Tensor::randn({8, s, 64}, rng);
  Tensor k = Tensor::randn({8, s, 64}, rng);
  Tensor v = Tensor::randn({8, s, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::attention_heads(q, k, v));
  }
}
BENCHMARK(BM_AttentionFused)->Arg(64)->Arg(128);

void BM_AttentionComposed(benchmark::State& state) {
  const auto s = state.range(0);
  Rng rng(4);
  Tensor q = Tensor::randn({8, s, 64}, rng);
  Tensor k = Tensor::randn({8, s, 64}, rng);
  Tensor v = Tensor::randn({8, s, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::attention_composed(q, k, v));
  }
}
BENCHMARK(BM_AttentionComposed)->Arg(64)->Arg(128);

void BM_LayerNorm(benchmark::State& state) {
  const auto h = state.range(0);
  Rng rng(5);
  Tensor x = Tensor::randn({256, h}, rng);
  Tensor gamma = Tensor::ones({h});
  Tensor beta = Tensor::zeros({h});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::layernorm(x, gamma, beta));
  }
  state.SetBytesProcessed(state.iterations() * 256 * h * sizeof(float) * 2);
}
BENCHMARK(BM_LayerNorm)->Arg(256)->Arg(1024);

// ---- machine-readable sweep ---------------------------------------------------

// The seed repo's scalar blocked GEMM, kept verbatim under the bench's
// project-default flags: this is the pre-backend kernel every speedup in
// BENCH_tensor_ops.json is measured against.
void seed_scalar_gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
                         const float* a, const float* b, float* c) {
  constexpr std::int64_t kBlockK = 256;
  constexpr std::int64_t kBlockN = 512;
  for (std::int64_t pp = 0; pp < k; pp += kBlockK) {
    const std::int64_t pe = std::min(pp + kBlockK, k);
    for (std::int64_t jj = 0; jj < n; jj += kBlockN) {
      const std::int64_t je = std::min(jj + kBlockN, n);
      std::int64_t i = 0;
      for (; i + 4 <= m; i += 4) {
        float* c0 = c + (i + 0) * n;
        float* c1 = c + (i + 1) * n;
        float* c2 = c + (i + 2) * n;
        float* c3 = c + (i + 3) * n;
        for (std::int64_t p = pp; p < pe; ++p) {
          const float a0 = a[(i + 0) * k + p];
          const float a1 = a[(i + 1) * k + p];
          const float a2 = a[(i + 2) * k + p];
          const float a3 = a[(i + 3) * k + p];
          const float* brow = b + p * n;
          for (std::int64_t j = jj; j < je; ++j) {
            const float bv = brow[j];
            c0[j] += a0 * bv;
            c1[j] += a1 * bv;
            c2[j] += a2 * bv;
            c3[j] += a3 * bv;
          }
        }
      }
      for (; i < m; ++i) {
        // Unsigned row offset: with the sweep's constant 512³ shape inlined,
        // gcc 12 proves this tail dead yet warns that a signed i * n would
        // overflow in it (-Waggressive-loop-optimizations).
        float* crow = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
        for (std::int64_t p = pp; p < pe; ++p) {
          const float av = a[i * k + p];
          const float* brow = b + p * n;
          for (std::int64_t j = jj; j < je; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

struct SweepResult {
  std::string op;
  std::vector<std::int64_t> shape;
  std::size_t threads;
  double ms;  ///< best of 5, or the median of alternating repeats
  double gflops;
  double ms_min = -1.0, ms_p90 = -1.0;  ///< alternating repeats only
};

/// Best-of-N wall time of fn(), in seconds.
double time_best(const std::function<void()>& fn, int reps = 5) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

SweepResult sweep_entry(const std::string& op, std::vector<std::int64_t> shape,
                        std::size_t threads, double flops,
                        const std::function<void()>& fn) {
  const double secs = time_best(fn);
  return SweepResult{op, std::move(shape), threads, secs * 1e3, flops / secs / 1e9};
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Ops that replace one another, timed alternately inside each of 7 repeats
/// after one warm-up round, so host drift lands on all of them alike; each
/// row records the median, min and p90 of its repeats.
void sweep_alternating(
    std::vector<std::pair<std::string, std::function<void()>>> ops,
    const std::vector<std::int64_t>& shape, std::size_t threads, double flops,
    std::vector<SweepResult>& results) {
  constexpr int kRepeats = 7;
  std::vector<std::vector<double>> secs(ops.size());
  for (auto& op : ops) op.second();
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      secs[i].push_back(time_best(ops[i].second, 1));
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double median = quantile(secs[i], 0.5);
    results.push_back(SweepResult{ops[i].first, shape, threads, median * 1e3,
                                  flops / median / 1e9, quantile(secs[i], 0.0) * 1e3,
                                  quantile(secs[i], 0.9) * 1e3});
  }
}

void write_json(const std::vector<SweepResult>& results, double speedup_1t,
                double speedup_4t, double bf16_speedup_1t) {
  std::FILE* f = std::fopen("BENCH_tensor_ops.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_tensor_ops.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_tensor_ops\",\n");
  std::fprintf(f, "  \"matmul512_speedup_vs_seed_scalar_1t\": %.2f,\n", speedup_1t);
  std::fprintf(f, "  \"matmul512_speedup_vs_seed_scalar_4t\": %.2f,\n", speedup_4t);
  std::fprintf(f, "  \"matmul512_bf16_speedup_vs_f32_1t\": %.2f,\n", bf16_speedup_1t);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f, "    {\"op\": \"%s\", \"shape\": [", r.op.c_str());
    for (std::size_t d = 0; d < r.shape.size(); ++d) {
      std::fprintf(f, "%s%lld", d == 0 ? "" : ", ",
                   static_cast<long long>(r.shape[d]));
    }
    std::fprintf(f, "], \"threads\": %zu, \"ms\": %.3f, \"gflops\": %.2f", r.threads,
                 r.ms, r.gflops);
    if (r.ms_min >= 0.0) {
      std::fprintf(f, ", \"ms_min\": %.3f, \"ms_p90\": %.3f", r.ms_min, r.ms_p90);
    }
    std::fprintf(f, "}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_tensor_ops.json (%zu entries)\n", results.size());
}

void run_sweep() {
  const std::size_t saved_threads = runtime::intra_op_threads();
  std::vector<SweepResult> results;
  Rng rng(17);

  // Seed-scalar baseline (thread count is irrelevant to it; record as 1).
  constexpr std::int64_t kN = 512;
  const double kMatmulFlops = 2.0 * kN * kN * kN;
  Tensor a = Tensor::randn({kN, kN}, rng);
  Tensor b = Tensor::randn({kN, kN}, rng);
  Tensor c({kN, kN});
  results.push_back(sweep_entry("matmul_seed_scalar", {kN, kN, kN}, 1, kMatmulFlops,
                                [&] {
                                  c.zero();
                                  seed_scalar_gemm_nn(kN, kN, kN, a.data().data(),
                                                      b.data().data(),
                                                      c.data().data());
                                }));
  const double seed_gflops = results.back().gflops;

  // bf16 operands for the mixed-precision rows (DESIGN.md §13): both-bf16
  // takes the native tile-engine path where available, f32 x bf16 the
  // inline-widening pack path.
  Tensor a16 = a.to(tensor::DType::kBf16);
  Tensor b16 = b.to(tensor::DType::kBf16);

  double gflops_1t = 0.0;
  double gflops_4t = 0.0;
  double bf16_gflops_1t = 0.0;
  for (std::size_t threads : {1u, 2u, 4u}) {
    runtime::set_intra_op_threads(threads);

    results.push_back(sweep_entry("matmul", {kN, kN, kN}, threads, kMatmulFlops,
                                  [&] { benchmark::DoNotOptimize(tensor::matmul(a, b)); }));
    if (threads == 1) gflops_1t = results.back().gflops;
    if (threads == 4) gflops_4t = results.back().gflops;

    results.push_back(sweep_entry("matmul_bf16", {kN, kN, kN}, threads,
                                  kMatmulFlops, [&] {
                                    benchmark::DoNotOptimize(
                                        tensor::matmul(a16, b16));
                                  }));
    if (threads == 1) bf16_gflops_1t = results.back().gflops;
    results.push_back(sweep_entry("matmul_f32xbf16", {kN, kN, kN}, threads,
                                  kMatmulFlops, [&] {
                                    benchmark::DoNotOptimize(
                                        tensor::matmul(a, b16));
                                  }));

    results.push_back(sweep_entry("matmul_nt", {kN, kN, kN}, threads, kMatmulFlops, [&] {
      benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
    }));
    results.push_back(sweep_entry("matmul_tn", {kN, kN, kN}, threads, kMatmulFlops, [&] {
      benchmark::DoNotOptimize(tensor::matmul_tn(a, b));
    }));

    // Attention-shaped batched GEMM: [heads, s, dk] x [heads, dk, s].
    Tensor q = Tensor::randn({16, 256, 64}, rng);
    Tensor kk = Tensor::randn({16, 256, 64}, rng);
    results.push_back(sweep_entry("bmm_nt", {16, 256, 256, 64}, threads,
                                  2.0 * 16 * 256 * 256 * 64, [&] {
                                    benchmark::DoNotOptimize(tensor::bmm_nt(q, kk));
                                  }));

    // Fused kernels (nominal FLOP counts — useful for trajectory, not for
    // absolute efficiency claims).
    Tensor x = Tensor::randn({2048, 1024}, rng);
    Tensor bias = Tensor::randn({1024}, rng);
    results.push_back(sweep_entry("fused_bias_gelu", {2048, 1024}, threads,
                                  15.0 * 2048 * 1024, [&] {
                                    benchmark::DoNotOptimize(
                                        tensor::fused_bias_gelu(x, bias));
                                  }));

    Tensor gamma = Tensor::ones({1024});
    Tensor beta = Tensor::zeros({1024});
    results.push_back(sweep_entry("layernorm", {2048, 1024}, threads,
                                  8.0 * 2048 * 1024, [&] {
                                    benchmark::DoNotOptimize(
                                        tensor::layernorm(x, gamma, beta));
                                  }));

    // Attention over the same heads, every key visible: the fused kernel and
    // the composition it replaces (4·h·s²·dk FLOPs).
    Tensor vv = Tensor::randn({16, 256, 64}, rng);
    const double attn_flops = 4.0 * 16 * 256 * 256 * 64;
    results.push_back(sweep_entry("attention", {16, 256, 64}, threads, attn_flops,
                                  [&] {
                                    benchmark::DoNotOptimize(
                                        bench::attention_heads(q, kk, vv));
                                  }));
    results.push_back(sweep_entry("attention_composed", {16, 256, 64}, threads,
                                  attn_flops, [&] {
                                    benchmark::DoNotOptimize(
                                        bench::attention_composed(q, kk, vv));
                                  }));

    // The attention backward at the training shape (8 heads, s = 128,
    // dk = 64, causal), with and without dropout, against the node chain it
    // replaces, which reads the P (and P ⊙ mask, the mask drawn from the same
    // streams) its forward saved. FLOPs are the chain's four products,
    // 8·h·s²·dk.
    constexpr std::int64_t kHeads = 8, kS = 128, kDk = 64;
    const Tensor qkv = Tensor::randn({kS, 3 * kHeads * kDk}, rng);
    const Tensor dctx = Tensor::randn({kS, kHeads * kDk}, rng);
    std::vector<Rng> streams;
    for (std::int64_t h = 0; h < kHeads; ++h) streams.emplace_back(rng.next_u64(), h);
    const Tensor mask = bench::prob_dropout_mask(streams, kS, 0.1f);
    const Tensor split = qkv.view({kS, kHeads, 3 * kDk}).permute({1, 0, 2});
    Tensor scores = tensor::scale(tensor::bmm_nt(split.slice(-1, 0, kDk),
                                                 split.slice(-1, kDk, kDk)),
                                  0.125f);
    for (std::int64_t h = 0; h < kHeads; ++h) {
      for (std::int64_t i = 0; i < kS; ++i) {
        for (std::int64_t j = i + 1; j < kS; ++j) {
          scores.at({h, i, j}) = -std::numeric_limits<float>::infinity();
        }
      }
    }
    const Tensor probs = tensor::softmax_lastdim(scores);
    const Tensor probs_dropped = tensor::mul(probs, mask);
    const double bwd_flops = 8.0 * kHeads * kS * kS * kDk;
    for (const bool dropout : {false, true}) {
      const Tensor* m = dropout ? &mask : nullptr;
      const std::span<const Rng> drop = dropout ? std::span<const Rng>(streams)
                                                : std::span<const Rng>();
      const std::string suffix = dropout ? "_dropout" : "";
      sweep_alternating(
          {{"attention_backward" + suffix,
            [&] {
              benchmark::DoNotOptimize(bench::attention_backward_rows(
                  qkv, dctx, drop, 0.1f, kHeads, true));
            }},
           {"attention_backward_composed" + suffix,
            [&] {
              benchmark::DoNotOptimize(bench::attention_backward_composed(
                  qkv, dctx, probs, dropout ? probs_dropped : probs, m, kHeads));
            }}},
          {kHeads, kS, kDk}, threads, bwd_flops, results);
    }
  }
  // Serving-decode GEMMs: m rows in flight times the [256 -> 768] QKV,
  // [256 -> 1024] fc1 and [1024 -> 256] fc2 weights of an h = 256 GPT (the
  // serve-chat benchmark model), plus one 4096-wide layer. All take the
  // small-m path (m < 128). Shapes are [m, n, k].
  struct DecodeShape {
    std::int64_t m, k, n;
  };
  std::vector<DecodeShape> decode_shapes;
  for (std::int64_t m : {1, 4, 16, 64}) {
    for (const auto& [k, n] : {std::pair<std::int64_t, std::int64_t>{256, 768},
                               {256, 1024},
                               {1024, 256}}) {
      decode_shapes.push_back({m, k, n});
    }
  }
  decode_shapes.push_back({1, 4096, 4096});
  for (std::size_t threads : {1u, 4u}) {
    runtime::set_intra_op_threads(threads);
    for (const DecodeShape& d : decode_shapes) {
      Tensor x = Tensor::randn({d.m, d.k}, rng);
      Tensor w = Tensor::randn({d.k, d.n}, rng);
      results.push_back(sweep_entry("matmul_decode", {d.m, d.n, d.k}, threads,
                                    2.0 * d.m * d.n * d.k, [&] {
                                      benchmark::DoNotOptimize(tensor::matmul(x, w));
                                    }));
    }
  }
  runtime::set_intra_op_threads(saved_threads);

  const double speedup_1t = gflops_1t / seed_gflops;
  const double speedup_4t = gflops_4t / seed_gflops;
  std::printf("\nmatmul 512x512x512: seed scalar %.2f GFLOP/s | backend %.2f (1t, %.1fx) "
              "| %.2f (4t, %.1fx)\n",
              seed_gflops, gflops_1t, speedup_1t, gflops_4t, speedup_4t);
  std::printf("matmul 512x512x512 bf16: %.2f GFLOP/s (%.2fx vs f32, 1t)\n",
              bf16_gflops_1t, bf16_gflops_1t / gflops_1t);
  write_json(results, speedup_1t, speedup_4t, bf16_gflops_1t / gflops_1t);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_sweep();
  return 0;
}
