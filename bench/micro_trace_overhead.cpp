// Observability-plane overhead microbenchmark (DESIGN.md §11): runs the
// same (p=4, v=2, interleaved) engine workload with tracing off, metrics
// only, and full span recording, alternating the three modes inside each of
// kRepeats repeats, and writes BENCH_trace_overhead.json (the
// BENCH_tensor_ops.json convention): median/min/p90 steps/s per mode and
// the overhead relative to tracing-off, paired within each repeat. The
// acceptance target is <1% steps/s cost for the disabled tracer: a disabled
// site is one relaxed atomic load.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/stopwatch.hpp"

namespace ptdp {
namespace {

constexpr int kWarmupSteps = 2;
constexpr int kTimedSteps = 8;
constexpr int kRepeats = 7;

model::GptConfig bench_config() {
  model::GptConfig c;
  c.num_layers = 8;
  c.hidden = 64;
  c.heads = 4;
  c.vocab = 64;
  c.seq = 32;
  c.dropout = 0.0f;
  c.seed = 2024;
  return c;
}

/// One engine run (p=4, t=1, d=1, v=2, m=8); returns timed steps/s.
double run_once(obs::TraceMode mode, const data::TokenDataset& dataset) {
  obs::Tracer::instance().set_mode(mode);
  double seconds = 0.0;
  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = bench_config();
    options.parallel.p = 4;
    options.parallel.v = 2;
    options.parallel.b = 1;
    options.parallel.schedule = pipeline::ScheduleType::kInterleaved;
    options.parallel.recompute = false;
    options.global_batch = 8;
    options.optimizer = core::EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.1f;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, options.global_batch, 1, 1,
                               engine.groups().coord().data, /*seed=*/88);
    for (int s = 0; s < kWarmupSteps; ++s) {
      auto mbs = loader.next_batch(s);
      engine.train_step(mbs);
    }
    Stopwatch watch;
    for (int s = kWarmupSteps; s < kWarmupSteps + kTimedSteps; ++s) {
      auto mbs = loader.next_batch(s);
      engine.train_step(mbs);
    }
    if (comm.rank() == 0) seconds = watch.elapsed_seconds();
  });
  obs::Tracer::instance().set_mode(obs::TraceMode::kOff);
  return static_cast<double>(kTimedSteps) / seconds;
}

// Median, min and p90 of a sample (sorted copy; p90 by nearest rank).
struct Spread {
  double median = 0, min = 0, p90 = 0;
};
Spread spread(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return {n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]), xs.front(),
          xs[std::min(n - 1, (9 * n + 9) / 10 - 1)]};
}

}  // namespace
}  // namespace ptdp

int main() {
  using namespace ptdp;
  const model::GptConfig c = bench_config();
  data::SyntheticCorpus corpus(c.vocab, 55);
  const data::TokenDataset dataset(corpus.generate(4000), c.seq);

  const struct { const char* name; obs::TraceMode mode; } modes[] = {
      {"off", obs::TraceMode::kOff},
      {"metrics_only", obs::TraceMode::kMetricsOnly},
      {"full", obs::TraceMode::kFull},
  };
  constexpr int kModes = 3;
  // Every repeat runs all three modes back to back, starting from a
  // different mode each time, so host drift lands on every mode alike.
  // Overheads are paired within a repeat: (off - mode) / off.
  std::vector<double> sps[kModes], overhead[kModes];
  std::uint64_t events[kModes] = {};
  for (int rep = 0; rep < kRepeats; ++rep) {
    double run_sps[kModes];
    for (int i = 0; i < kModes; ++i) {
      const int m = (rep + i) % kModes;
      obs::Tracer::instance().reset();
      obs::MetricsRegistry::instance().reset();
      run_sps[m] = run_once(modes[m].mode, dataset);
      events[m] = obs::Tracer::instance().events_recorded();
    }
    for (int m = 0; m < kModes; ++m) {
      sps[m].push_back(run_sps[m]);
      overhead[m].push_back((run_sps[0] - run_sps[m]) / run_sps[0] * 100.0);
    }
  }

  std::printf("trace overhead (p=4 v=2 m=8, %d timed steps, %d alternating "
              "repeats; overhead paired per repeat):\n",
              kTimedSteps, kRepeats);
  for (int m = 0; m < kModes; ++m) {
    const Spread s = spread(sps[m]);
    const Spread o = spread(overhead[m]);
    std::printf("  %-12s steps/s median %7.2f min %7.2f p90 %7.2f   overhead "
                "median %+6.2f%% [min %+6.2f%%, p90 %+6.2f%%]  (%llu events/run)\n",
                modes[m].name, s.median, s.min, s.p90, o.median, o.min, o.p90,
                static_cast<unsigned long long>(events[m]));
  }

  std::FILE* f = std::fopen("BENCH_trace_overhead.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_trace_overhead.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_trace_overhead\",\n");
  std::fprintf(f, "  \"config\": {\"p\": 4, \"t\": 1, \"d\": 1, \"v\": 2, \"m\": 8, "
                  "\"timed_steps\": %d, \"repeats\": %d},\n",
               kTimedSteps, kRepeats);
  std::fprintf(f, "  \"results\": [\n");
  for (int m = 0; m < kModes; ++m) {
    const Spread s = spread(sps[m]);
    const Spread o = spread(overhead[m]);
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"steps_per_s\": {\"median\": %.3f, "
                 "\"min\": %.3f, \"p90\": %.3f}, \"overhead_pct\": {\"median\": "
                 "%.3f, \"min\": %.3f, \"p90\": %.3f}, \"events_per_run\": %llu}%s\n",
                 modes[m].name, s.median, s.min, s.p90, o.median, o.min, o.p90,
                 static_cast<unsigned long long>(events[m]),
                 m + 1 == kModes ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_trace_overhead.json (%d modes)\n", kModes);
  return 0;
}
