// The mixed-precision headline (DESIGN.md §13): end-to-end train_step wall
// time and pipeline p2p comm bytes on the (p,t,d)=(2,2,2) grid, bf16
// weights + bf16 boundaries + bf16 grad wire vs the all-f32 baseline, plus
// the two grad-reduce wire dtypes measured separately. Writes
// BENCH_mixed_precision.json to the working directory.
//
// The model is sized so the step is GEMM- and comm-dominated (the regime
// the paper's mixed-precision runs live in), not overhead-dominated like
// the tiny correctness-test configs.
//
// Protocol: the four configs alternate inside each of kRepeats repeats, so
// host drift lands on all of them alike. A repeat builds a fresh world and
// engine per config, runs kWarmupSteps, then kTimedSteps; a step lasts
// until the slowest rank finishes, and the repeat's sample is the median of
// its timed steps. Each config reports the median, min and p90 of its
// samples; the speedup is a ratio of medians. The JSON carries a host
// stamp: usable cores and whether bf16 GEMMs ran on AMX.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace {

using namespace ptdp;
using tensor::DType;

constexpr int kP = 2, kT = 2, kD = 2;
constexpr std::int64_t kGlobalBatch = 8;
constexpr std::int64_t kMicroBatch = 2;
constexpr int kRepeats = 7;
constexpr int kWarmupSteps = 1;
constexpr int kTimedSteps = 3;

model::GptConfig bench_config() {
  model::GptConfig c;
  c.num_layers = 2;  // one per pipeline stage
  c.hidden = 512;
  c.heads = 8;
  c.vocab = 512;
  c.seq = 64;
  c.dropout = 0.0f;
  c.seed = 7;
  return c;
}

struct Config {
  const char* name;
  DType model_dtype;
  DType grad_comm_dtype;
};

constexpr Config kConfigs[] = {
    {"f32", DType::kF32, DType::kF32},
    {"f32_gradbf16", DType::kF32, DType::kBf16},
    {"bf16", DType::kBf16, DType::kF32},
    {"bf16_gradbf16", DType::kBf16, DType::kBf16},
};

struct Sample {
  double step_ms = 0.0;           ///< median timed step, slowest rank
  std::uint64_t p2p_bytes = 0;    ///< world-summed, timed steps only
  std::uint64_t p2p_messages = 0; ///< world-summed, timed steps only
  float final_loss = 0.0f;
};

// Nearest-rank quantile of the samples (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

Sample run_config(const Config& cfg) {
  model::GptConfig c = bench_config();
  c.dtype = cfg.model_dtype;
  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(8000), c.seq);

  const int world_size = kP * kT * kD;
  // step_ms[step][rank]
  std::vector<std::vector<double>> step_ms(kTimedSteps,
                                           std::vector<double>(world_size, 0.0));
  std::vector<std::uint64_t> bytes(world_size, 0), msgs(world_size, 0);
  std::vector<float> loss(world_size, 0.0f);

  dist::World world(world_size);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel.p = kP;
    options.parallel.t = kT;
    options.parallel.d = kD;
    options.parallel.b = kMicroBatch;
    options.parallel.recompute = false;
    options.global_batch = kGlobalBatch;
    options.optimizer = core::EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.01f;
    options.grad_comm_dtype = cfg.grad_comm_dtype;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, kGlobalBatch, kMicroBatch, kD,
                               engine.groups().coord().data, /*seed=*/88);
    int step = 0;
    for (int s = 0; s < kWarmupSteps; ++s) {
      engine.train_step(loader.next_batch(step++));
    }
    const auto before = engine.executor().comm_stats();
    const auto r = static_cast<std::size_t>(comm.rank());
    float last = 0.0f;
    for (int s = 0; s < kTimedSteps; ++s) {
      const auto t0 = std::chrono::steady_clock::now();
      last = engine.train_step(loader.next_batch(step++));
      const auto t1 = std::chrono::steady_clock::now();
      step_ms[static_cast<std::size_t>(s)][r] =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
    const auto after = engine.executor().comm_stats();
    bytes[r] = after.p2p_bytes_sent - before.p2p_bytes_sent;
    msgs[r] = after.p2p_messages - before.p2p_messages;
    loss[r] = last;
  });

  Sample out;
  std::vector<double> slowest;
  for (const auto& ranks : step_ms) {
    slowest.push_back(*std::max_element(ranks.begin(), ranks.end()));
  }
  out.step_ms = quantile(slowest, 0.5);
  for (auto b : bytes) out.p2p_bytes += b;
  for (auto m : msgs) out.p2p_messages += m;
  out.final_loss = loss[0];
  return out;
}

struct Row {
  std::string name;
  double ms_median, ms_min, ms_p90;
  Sample last;
};

void write_json(const std::vector<Row>& rows, double e2e_speedup, double p2p_ratio) {
  std::FILE* f = std::fopen("BENCH_mixed_precision.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_mixed_precision.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"mixed_precision_e2e\",\n");
  std::fprintf(f,
               "  \"host\": {\"cores\": %d, \"amx_granted\": %s, "
               "\"intra_op_threads\": %zu},\n",
               usable_cores(), tensor::bf16_gemm_on_amx() ? "true" : "false",
               runtime::intra_op_threads());
  std::fprintf(f, "  \"grid\": {\"p\": %d, \"t\": %d, \"d\": %d},\n", kP, kT, kD);
  std::fprintf(f,
               "  \"protocol\": {\"repeats\": %d, \"warmup_steps\": %d, "
               "\"timed_steps\": %d, \"configs_alternate\": true},\n",
               kRepeats, kWarmupSteps, kTimedSteps);
  std::fprintf(f, "  \"bf16_e2e_speedup_vs_f32\": %.3f,\n", e2e_speedup);
  std::fprintf(f, "  \"bf16_p2p_bytes_ratio_vs_f32\": %.3f,\n", p2p_ratio);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"step_ms_median\": %.2f, "
                 "\"step_ms_min\": %.2f, \"step_ms_p90\": %.2f, \"p2p_bytes\": "
                 "%llu, \"p2p_messages\": %llu, \"loss\": %.4f}%s\n",
                 r.name.c_str(), r.ms_median, r.ms_min, r.ms_p90,
                 static_cast<unsigned long long>(r.last.p2p_bytes),
                 static_cast<unsigned long long>(r.last.p2p_messages),
                 r.last.final_loss, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_mixed_precision.json (%zu configs x %d repeats)\n",
              rows.size(), kRepeats);
}

}  // namespace

int main() {
  constexpr std::size_t kN = std::size(kConfigs);
  std::vector<std::vector<double>> samples(kN);
  std::vector<Sample> last(kN);
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t i = 0; i < kN; ++i) {
      last[i] = run_config(kConfigs[i]);
      samples[i].push_back(last[i].step_ms);
    }
  }

  std::vector<Row> rows;
  for (std::size_t i = 0; i < kN; ++i) {
    rows.push_back(Row{kConfigs[i].name, quantile(samples[i], 0.5),
                       quantile(samples[i], 0.0), quantile(samples[i], 0.9), last[i]});
  }
  const Row& f32 = rows[0];
  const Row& bf16 = rows[3];
  const double speedup = f32.ms_median / bf16.ms_median;
  const double ratio = static_cast<double>(bf16.last.p2p_bytes) /
                       static_cast<double>(f32.last.p2p_bytes);
  std::printf("host: cores %d, bf16 GEMMs on AMX: %s\n", usable_cores(),
              tensor::bf16_gemm_on_amx() ? "yes" : "no");
  for (const Row& r : rows) {
    std::printf("%-14s step ms median %7.2f min %7.2f p90 %7.2f | p2p %9llu B in "
                "%llu msgs | loss %.4f\n",
                r.name.c_str(), r.ms_median, r.ms_min, r.ms_p90,
                static_cast<unsigned long long>(r.last.p2p_bytes),
                static_cast<unsigned long long>(r.last.p2p_messages),
                r.last.final_loss);
  }
  std::printf("bf16 vs f32: %.2fx e2e (ratio of medians), p2p bytes ratio %.3f\n",
              speedup, ratio);
  write_json(rows, speedup, ratio);
  return 0;
}
