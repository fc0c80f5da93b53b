// Weight-only quantized GEMM benchmark (DESIGN.md §17): the decode-path
// shapes — 1×K @ K×N single-token and m=8 small-batch — where streaming
// fp32 weights is the bottleneck and int8/q4 payloads multiply effective
// memory bandwidth. Measures tensor::matmul (f32 baseline) against
// quant::matmul at int8 and q4, plus the per-group round-trip error
// harness, and writes BENCH_quant.json with the §17 acceptance ratios
// (int8 >= 2x, q4 >= 1.5x over f32 at the 1x4096 shape).
//
// Protocol: f32, int8 and q4 alternate inside each of kRepeats repeats, so
// host drift lands on all three alike; each row records the median, min
// and p90 of its repeats. GEMMs at m <= 8 are bandwidth-bound, so every
// row also reports weight GB/s: the bytes of the weight operand as stored
// (f32, or payload + scales + zero-points) streamed once per product, over
// the median time. Speedups are ratios of medians. The intra-op thread
// count comes from PTDP_NUM_THREADS (default: all cores).
//
// Exits non-zero when an acceptance threshold fails so CI can gate on it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "ptdp/quant/quant.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace {

using namespace ptdp;
using tensor::Tensor;

constexpr int kRepeats = 7;

double seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Nearest-rank quantile of the samples (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct GemmRow {
  std::int64_t m, k, n;
  std::string op;  ///< "f32" | "int8" | "q4"
  double weight_bytes;
  double ms_median, ms_min, ms_p90;
  double gflops;       ///< at the median
  double weight_gbps;  ///< weight bytes / median time
  double speedup;      ///< f32 median / this median at the same shape
};

struct ErrRow {
  std::int64_t group;
  std::string kind;
  double max_abs_err;   ///< measured max |w - dequant(quant(w))|
  double bound;         ///< per-group guarantee: (max-min)/levels
};

// Repeat each timed GEMM enough times that tiny shapes aren't pure
// timer noise (a 1x1024 step runs in ~1 us).
int reps_for(std::int64_t flops) {
  return static_cast<int>(std::clamp<std::int64_t>((1 << 26) / std::max<std::int64_t>(flops, 1), 1, 512));
}

void bench_shape(std::int64_t m, std::int64_t k, std::int64_t n,
                 std::int64_t group, std::vector<GemmRow>& out) {
  Rng rng(23);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor w = Tensor::randn({k, n}, rng);
  const auto q8 = quant::quantize(w, tensor::QuantKind::kInt8, group);
  const auto q4 = quant::quantize(w, tensor::QuantKind::kQ4, group);
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const int inner = reps_for(static_cast<std::int64_t>(flops));

  struct Op {
    const char* name;
    double weight_bytes;
    std::function<void()> run;
    std::vector<double> secs;
  };
  std::vector<Op> ops = {
      {"f32", 4.0 * static_cast<double>(k) * n, [&] { tensor::matmul(a, w); }, {}},
      {"int8", static_cast<double>(q8.quant_bytes()), [&] { quant::matmul(a, q8); }, {}},
      {"q4", static_cast<double>(q4.quant_bytes()), [&] { quant::matmul(a, q4); }, {}},
  };
  for (Op& op : ops) op.run();  // warm-up: scratch buffers, pool, caches
  for (int r = 0; r < kRepeats; ++r) {
    for (Op& op : ops) {
      op.secs.push_back(seconds([&] {
                          for (int i = 0; i < inner; ++i) op.run();
                        }) /
                        inner);
    }
  }
  const double f32_median = quantile(ops[0].secs, 0.5);
  for (const Op& op : ops) {
    const double median = quantile(op.secs, 0.5);
    out.push_back(GemmRow{m, k, n, op.name, op.weight_bytes, median * 1e3,
                          quantile(op.secs, 0.0) * 1e3, quantile(op.secs, 0.9) * 1e3,
                          flops / median / 1e9, op.weight_bytes / median / 1e9,
                          f32_median / median});
  }
}

void roundtrip_errors(std::vector<ErrRow>& out) {
  constexpr std::int64_t kK = 1024, kN = 256;
  Rng rng(29);
  Tensor w = Tensor::randn({kK, kN}, rng);
  const auto dw = w.data();
  for (const auto kind : {tensor::QuantKind::kInt8, tensor::QuantKind::kQ4}) {
    for (const std::int64_t group : {16LL, 64LL, 256LL}) {
      const auto q = quant::quantize(w, kind, group);
      const Tensor deq = quant::dequantize(q);
      const auto dd = deq.data();
      double max_err = 0.0;
      // The §17 bound is per group: error <= (max - min) / levels. Track
      // the loosest per-group bound alongside the measured max error.
      double bound = 0.0;
      const double levels = static_cast<double>(tensor::quant_levels(kind));
      for (std::int64_t j = 0; j < kN; ++j) {
        for (std::int64_t g0 = 0; g0 < kK; g0 += group) {
          float mn = dw[static_cast<std::size_t>(g0 * kN + j)];
          float mx = mn;
          for (std::int64_t i = g0; i < g0 + group; ++i) {
            const float v = dw[static_cast<std::size_t>(i * kN + j)];
            mn = std::min(mn, v);
            mx = std::max(mx, v);
            max_err = std::max(
                max_err, static_cast<double>(std::fabs(
                             v - dd[static_cast<std::size_t>(i * kN + j)])));
          }
          bound = std::max(bound, static_cast<double>(mx - mn) / levels);
        }
      }
      out.push_back(ErrRow{group, tensor::quant_kind_name(kind), max_err, bound});
    }
  }
}

void write_json(const std::vector<GemmRow>& rows, const std::vector<ErrRow>& errs,
                double int8_speedup_4096, double q4_speedup_4096) {
  std::FILE* f = std::fopen("BENCH_quant.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_quant.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_quant\",\n");
  std::fprintf(f, "  \"threads\": %zu,\n", runtime::intra_op_threads());
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(f, "  \"int8_speedup_vs_f32_1x4096\": %.2f,\n", int8_speedup_4096);
  std::fprintf(f, "  \"q4_speedup_vs_f32_1x4096\": %.2f,\n", q4_speedup_4096);
  std::fprintf(f, "  \"gemm\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GemmRow& r = rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"m\": %lld, \"k\": %lld, \"n\": %lld, "
                 "\"weight_bytes\": %.0f, \"ms_median\": %.4f, \"ms_min\": %.4f, "
                 "\"ms_p90\": %.4f, \"gflops\": %.2f, \"weight_gbps\": %.2f, "
                 "\"speedup_vs_f32\": %.2f}%s\n",
                 r.op.c_str(), static_cast<long long>(r.m),
                 static_cast<long long>(r.k), static_cast<long long>(r.n),
                 r.weight_bytes, r.ms_median, r.ms_min, r.ms_p90, r.gflops,
                 r.weight_gbps, r.speedup, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"roundtrip_error\": [\n");
  for (std::size_t i = 0; i < errs.size(); ++i) {
    const ErrRow& e = errs[i];
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"group\": %lld, \"max_abs_err\": %.6g, "
                 "\"per_group_bound\": %.6g}%s\n",
                 e.kind.c_str(), static_cast<long long>(e.group), e.max_abs_err,
                 e.bound, i + 1 == errs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_quant.json (%zu gemm rows, %zu error rows)\n",
              rows.size(), errs.size());
}

}  // namespace

int main() {
  std::printf("quantized GEMM at decode shapes (group 64, %zu threads, "
              "%d alternating repeats)\n",
              runtime::intra_op_threads(), kRepeats);
  std::vector<GemmRow> rows;
  // Single-token decode (m=1) and small-batch decode (m=8) at transformer
  // widths; K=N keeps the table square like the micro_tensor_ops sweep.
  for (const std::int64_t kn : {1024LL, 2048LL, 4096LL}) {
    bench_shape(1, kn, kn, 64, rows);
  }
  bench_shape(8, 4096, 4096, 64, rows);

  std::printf("%4s %6s %6s %6s %10s %10s %10s %10s %10s %8s\n", "op", "m", "k",
              "n", "ms med", "ms min", "ms p90", "GFLOP/s", "weight GB/s",
              "vs f32");
  for (const GemmRow& r : rows) {
    std::printf("%4s %6lld %6lld %6lld %10.4f %10.4f %10.4f %10.2f %10.2f %7.2fx\n",
                r.op.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.k), static_cast<long long>(r.n),
                r.ms_median, r.ms_min, r.ms_p90, r.gflops, r.weight_gbps,
                r.speedup);
  }

  std::vector<ErrRow> errs;
  roundtrip_errors(errs);
  std::printf("\nround-trip error, 1024x256 randn weight:\n");
  for (const ErrRow& e : errs) {
    std::printf("  %-4s group %-4lld max|err| %.6f (per-group bound %.6f)\n",
                e.kind.c_str(), static_cast<long long>(e.group), e.max_abs_err,
                e.bound);
  }

  double int8_speedup = 0.0, q4_speedup = 0.0;
  for (const GemmRow& r : rows) {
    if (r.m == 1 && r.k == 4096 && r.op == "int8") int8_speedup = r.speedup;
    if (r.m == 1 && r.k == 4096 && r.op == "q4") q4_speedup = r.speedup;
  }
  write_json(rows, errs, int8_speedup, q4_speedup);

  int failures = 0;
  if (int8_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: int8 1x4096 speedup %.2fx < 2.0x\n", int8_speedup);
    ++failures;
  }
  if (q4_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: q4 1x4096 speedup %.2fx < 1.5x\n", q4_speedup);
    ++failures;
  }
  for (const ErrRow& e : errs) {
    if (e.max_abs_err > e.bound) {
      std::fprintf(stderr, "FAIL: %s group %lld error %.6g exceeds bound %.6g\n",
                   e.kind.c_str(), static_cast<long long>(e.group), e.max_abs_err,
                   e.bound);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
