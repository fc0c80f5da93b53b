// Probes for the traced run: the host's FMA peak and stream bandwidth, GEMM
// throughput at the shapes the workloads run (as a fraction of that peak),
// and GptStage::decode timed through a KvStore decorator that splits out
// the KV gather and write time.

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "ptdp/model/stage.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/serve/kv_cache.hpp"
#include "ptdp/tensor/ops.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace ptdpbench {
namespace {

using ptdp::tensor::DType;
using ptdp::tensor::Tensor;

// ---- host peak ------------------------------------------------------------------

// Independent FMA chains: enough to cover FMA latency on two ports.
constexpr int kChains = 16;

/// FLOPs issued by one thread running `iters` rounds of the FMA loop.
double fma_loop(std::int64_t iters) {
#if defined(__AVX512F__)
  using V = __m512;
  constexpr int kLanes = 16;
  const V a = _mm512_set1_ps(0.999999f), b = _mm512_set1_ps(1e-6f);
  V acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_ps(static_cast<float>(j));
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_ps(acc[j], a, b);
  }
  alignas(64) float lanes[kLanes];
  float sink = 0.0f;
  for (int j = 0; j < kChains; ++j) {
    _mm512_store_ps(lanes, acc[j]);
    for (float x : lanes) sink += x;
  }
#elif defined(__AVX2__) && defined(__FMA__)
  using V = __m256;
  constexpr int kLanes = 8;
  const V a = _mm256_set1_ps(0.999999f), b = _mm256_set1_ps(1e-6f);
  V acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_ps(static_cast<float>(j));
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_ps(acc[j], a, b);
  }
  float lanes[8];
  float sink = 0.0f;
  for (int j = 0; j < kChains; ++j) {
    _mm256_storeu_ps(lanes, acc[j]);
    for (float x : lanes) sink += x;
  }
#else
  constexpr int kLanes = 1;
  float acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = static_cast<float>(j);
  for (std::int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = std::fma(acc[j], 0.999999f, 1e-6f);
  }
  float sink = 0.0f;
  for (float x : acc) sink += x;
#endif
  // Keep the chains observable so the loop cannot be removed.
  volatile float keep = sink;
  (void)keep;
  return 2.0 * kLanes * kChains * static_cast<double>(iters);
}

/// Best-of-3 FMA throughput with `threads` threads running concurrently.
double peak_gflops(int threads) {
  constexpr std::int64_t kIters = 4'000'000;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> flops(static_cast<std::size_t>(threads), 0.0);
    const double t0 = now_s();
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] { flops[static_cast<std::size_t>(i)] = fma_loop(kIters); });
    }
    for (auto& t : pool) t.join();
    const double wall = now_s() - t0;
    double total = 0.0;
    for (double f : flops) total += f;
    best = std::max(best, total / wall / 1e9);
  }
  return best;
}

/// Stream triad a = b + s·c over arrays well past the last-level cache,
/// split across `threads`; best of 5, counting 3 arrays of traffic.
double stream_gbps(int threads) {
  constexpr std::size_t kN = std::size_t{16} << 20;  // 64 MiB per array
  std::vector<float> a(kN), b(kN), c(kN);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    const auto n = static_cast<std::size_t>(threads);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = kN * i / n, hi = kN * (i + 1) / n;
      pool.emplace_back([&, lo, hi] { body(lo, hi); });
    }
    for (auto& t : pool) t.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0f;
      b[i] = 1.0f;
      c[i] = 2.0f;
    }
  });
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const float s = 0.5f + static_cast<float>(rep);
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double wall = now_s() - t0;
    best = std::max(best, 3.0 * sizeof(float) * static_cast<double>(kN) / wall / 1e9);
  }
  volatile float keep = a[kN / 2];
  (void)keep;
  return best;
}

// ---- GEMM -----------------------------------------------------------------------

/// Median GFLOP/s of tensor::matmul on [m,k]x[k,n] at `threads` intra-op
/// threads, over at least 5 calls and 0.2 s.
double gemm_gflops(std::int64_t m, std::int64_t k, std::int64_t n, DType dtype,
                   int threads, std::uint64_t seed) {
  ptdp::runtime::set_intra_op_threads(static_cast<std::size_t>(threads));
  ptdp::Rng rng(seed, 0x6e33);
  const Tensor a = Tensor::randn({m, k}, rng).to(dtype);
  const Tensor b = Tensor::randn({k, n}, rng, 0.02f).to(dtype);
  for (int i = 0; i < 2; ++i) ptdp::tensor::matmul(a, b);
  std::vector<double> secs;
  const double start = now_s();
  while (secs.size() < 5 || now_s() - start < 0.2) {
    const double t0 = now_s();
    const Tensor c = ptdp::tensor::matmul(a, b);
    secs.push_back(now_s() - t0);
  }
  return 2.0 * static_cast<double>(m * n * k) / median(secs) / 1e9;
}

// ---- decode ---------------------------------------------------------------------

/// KvStore decorator that times the store's reads and writes and counts the
/// bytes gather() materializes.
class TimingKv final : public ptdp::model::KvStore {
 public:
  explicit TimingKv(ptdp::model::KvStore& inner) : inner_(inner) {}

  void write(std::uint64_t seq, std::int64_t layer, std::int64_t pos,
             const Tensor& k2d, const Tensor& v2d) override {
    const double t0 = now_s();
    inner_.write(seq, layer, pos, k2d, v2d);
    write_s += now_s() - t0;
  }
  void gather(std::uint64_t seq, std::int64_t layer, std::int64_t len, Tensor& k,
              Tensor& v) const override {
    const double t0 = now_s();
    inner_.gather(seq, layer, len, k, v);
    gather_s += now_s() - t0;
    gather_bytes += static_cast<double>(k.nbytes() + v.nbytes());
  }
  void drop(std::uint64_t seq) override { inner_.drop(seq); }

  void reset() { write_s = gather_s = gather_bytes = 0.0; }

  double write_s = 0.0;
  mutable double gather_s = 0.0;
  mutable double gather_bytes = 0.0;

 private:
  ptdp::model::KvStore& inner_;
};

struct DecodeProbe {
  double decode_ms = 0;      ///< median decode() step
  double gather_ms = 0;      ///< KV gather time per step
  double write_ms = 0;       ///< KV write time per step
  double gather_bytes = 0;   ///< bytes gathered per step
};

/// `batch` sequences prefilled to `ctx` positions, then `steps` single-token
/// decode() calls over the whole batch.
DecodeProbe probe_decode(std::int64_t window, std::int64_t batch, std::int64_t ctx,
                         std::uint64_t seed) {
  constexpr std::int64_t kSteps = 8;
  ptdp::model::GptConfig cfg = serving_model(window, seed);
  const ptdp::dist::Comm solo = ptdp::dist::Comm::solo();
  ptdp::model::GptStage stage(cfg, solo,
                              ptdp::model::StageSpec{true, true, 0, cfg.num_layers, false});
  ptdp::serve::KvCacheOptions ko;
  ko.num_layers = cfg.num_layers;
  ko.hidden_local = stage.kv_heads_local() * stage.kv_head_dim();
  ko.block_tokens = 8;
  ko.capacity_blocks = batch * ((ctx + kSteps + 7) / 8);
  ko.record_metrics = false;
  ptdp::serve::PagedKvCache paged(ko);
  for (std::int64_t s = 0; s < batch; ++s) {
    PTDP_CHECK(paged.try_reserve(static_cast<std::uint64_t>(s), ctx + kSteps));
  }
  TimingKv kv(paged);
  ptdp::Rng rng(seed, 0xdec0de);
  auto token = [&] {
    return static_cast<std::int32_t>(rng.next_below(static_cast<std::uint64_t>(cfg.vocab)));
  };

  // Prefill in chunks of at most 1024 rows per call.
  const std::int64_t chunk = std::max<std::int64_t>(1, std::min(ctx, 1024 / batch));
  for (std::int64_t pos = 0; pos < ctx; pos += chunk) {
    const std::int64_t len = std::min(chunk, ctx - pos);
    std::vector<ptdp::model::DecodeSeq> seqs;
    std::vector<std::int32_t> tokens;
    for (std::int64_t s = 0; s < batch; ++s) {
      seqs.push_back({static_cast<std::uint64_t>(s), pos, len});
      for (std::int64_t i = 0; i < len; ++i) tokens.push_back(token());
    }
    stage.decode(seqs, tokens, kv);
  }

  kv.reset();
  std::vector<double> step_ms;
  for (std::int64_t step = 0; step < kSteps; ++step) {
    std::vector<ptdp::model::DecodeSeq> seqs;
    std::vector<std::int32_t> tokens;
    for (std::int64_t s = 0; s < batch; ++s) {
      seqs.push_back({static_cast<std::uint64_t>(s), ctx + step, 1});
      tokens.push_back(token());
    }
    const double t0 = now_s();
    stage.decode(seqs, tokens, kv);
    step_ms.push_back((now_s() - t0) * 1e3);
  }
  DecodeProbe out;
  out.decode_ms = median(step_ms);
  out.gather_ms = kv.gather_s * 1e3 / kSteps;
  out.write_ms = kv.write_s * 1e3 / kSteps;
  out.gather_bytes = kv.gather_bytes / kSteps;
  return out;
}

}  // namespace

void add_probe_metrics(Report& report, std::uint64_t seed) {
  const int cores = usable_cores();
  const double peak_1t = peak_gflops(1);
  const double peak_all = peak_gflops(cores);
  report.add("host.peak_gflops", peak_all, "GFLOP/s");
  report.add("host.peak_gflops_1t", peak_1t, "GFLOP/s");
  report.add("host.stream_gbps", stream_gbps(cores), "GB/s");

  // Training GEMMs run one intra-op thread per rank; decode GEMMs run at
  // the serving thread count. Each is reported against the f32 FMA peak of
  // the same thread count (the bf16 shape runs on AMX where present and may
  // exceed 1).
  const int serve_threads = serving_threads();
  const double peak_serve = peak_all * serve_threads / cores;
  struct Shape {
    const char* name;
    std::int64_t m, k, n;
    DType dtype;
    bool train;
  };
  const Shape shapes[] = {
      {"train_qkv", 256, 512, 768, DType::kF32, true},        // [s·b,h]x[h,3h/t]
      {"train_fc1", 256, 512, 1024, DType::kF32, true},       // [s·b,h]x[h,4h/t]
      {"train_qkv_bf16", 128, 512, 1536, DType::kBf16, true}, // d=4 layout, t=1
      {"decode_m1", 1, 256, 768, DType::kF32, false},         // [m,h]x[h,3h]
      {"decode_m16", 16, 256, 768, DType::kF32, false},
      {"decode_m64", 64, 256, 768, DType::kF32, false},
  };
  for (const Shape& s : shapes) {
    const int threads = s.train ? 1 : serve_threads;
    const double g = gemm_gflops(s.m, s.k, s.n, s.dtype, threads, seed);
    report.add(std::string("tensor.gemm_gflops.") + s.name, g, "GFLOP/s");
    report.add(std::string("tensor.gemm_frac_peak.") + s.name,
               g / (s.train ? peak_1t : peak_serve), "ratio");
  }

  // Decode runs at the serving thread count.
  ptdp::runtime::set_intra_op_threads(static_cast<std::size_t>(serve_threads));
  const DecodeProbe chat = probe_decode(/*window=*/128, /*batch=*/40, /*ctx=*/64, seed);
  const DecodeProbe lng = probe_decode(/*window=*/1024, /*batch=*/8, /*ctx=*/768, seed);
  report.add("model.decode_ms.chat", chat.decode_ms, "ms");
  report.add("model.decode_ms.long", lng.decode_ms, "ms");
  report.add("model.kv_gather_ms", lng.gather_ms, "ms");
  report.add("model.kv_write_ms", lng.write_ms, "ms");
  report.add("model.kv_gather_frac", lng.decode_ms > 0 ? lng.gather_ms / lng.decode_ms : 0.0,
             "ratio");
  report.add("model.kv_gather_bytes", lng.gather_bytes, "B");
}

}  // namespace ptdpbench
