// Google-benchmark microbenchmarks for the thread-backed collectives: ring
// all-reduce / all-gather / reduce-scatter across world sizes, blocking vs
// request-based nonblocking p2p, and the end-to-end pipelined train step of
// a tiny model. These measure this library's real communication substrate
// (memcpy transport), not the simulated cluster.
//
// Besides the human-readable google-benchmark table, main() runs a fixed
// sweep and writes BENCH_collectives.json to the working directory (the
// BENCH_tensor_ops.json convention) so the communication-plane trajectory
// is machine-comparable across PRs: p2p ping-pong blocking vs nonblocking,
// the bucketed data-parallel all-reduce through GradReducer, engine steps
// with gradient-reduction overlap on/off, and the §4.1 scatter/gather
// inter-stage byte reduction (must be exactly 1/t).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptdp/comm/grad_reducer.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"

namespace {

using namespace ptdp;

void BM_AllReduce(benchmark::State& state) {
  const int world_size = static_cast<int>(state.range(0));
  const std::size_t len = static_cast<std::size_t>(state.range(1));
  dist::World world(world_size);
  for (auto _ : state) {
    world.run([len](dist::Comm& comm) {
      std::vector<float> data(len, 1.0f);
      comm.all_reduce(std::span<float>(data));
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * world_size * len * sizeof(float));
}
BENCHMARK(BM_AllReduce)->Args({2, 1 << 12})->Args({4, 1 << 12})->Args({8, 1 << 12});

void BM_AllGather(benchmark::State& state) {
  const int world_size = static_cast<int>(state.range(0));
  const std::size_t shard = 1 << 12;
  dist::World world(world_size);
  for (auto _ : state) {
    world.run([=](dist::Comm& comm) {
      std::vector<float> in(shard, 1.0f);
      std::vector<float> out(shard * static_cast<std::size_t>(world_size));
      comm.all_gather(std::span<const float>(in), std::span<float>(out));
      benchmark::DoNotOptimize(out.data());
    });
  }
}
BENCHMARK(BM_AllGather)->Arg(2)->Arg(8);

void BM_ReduceScatter(benchmark::State& state) {
  const int world_size = static_cast<int>(state.range(0));
  const std::size_t shard = 1 << 12;
  dist::World world(world_size);
  for (auto _ : state) {
    world.run([=](dist::Comm& comm) {
      std::vector<float> data(shard * static_cast<std::size_t>(world_size), 1.0f);
      comm.reduce_scatter_inplace(std::span<float>(data));
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_ReduceScatter)->Arg(2)->Arg(8);

void BM_Barrier(benchmark::State& state) {
  const int world_size = static_cast<int>(state.range(0));
  dist::World world(world_size);
  for (auto _ : state) {
    world.run([](dist::Comm& comm) {
      for (int i = 0; i < 10; ++i) comm.barrier();
    });
  }
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(8);

// Two-rank ping-pong: `rounds` message round-trips per world.run.
void pingpong_blocking(dist::Comm& comm, std::vector<float>& buf, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t tag = static_cast<std::uint64_t>(i);
    if (comm.rank() == 0) {
      comm.send(std::span<const float>(buf), 1, tag);
      comm.recv(std::span<float>(buf), 1, tag);
    } else {
      comm.recv(std::span<float>(buf), 0, tag);
      comm.send(std::span<const float>(buf), 0, tag);
    }
  }
}

// Same traffic through the request API, with the reply receive pre-posted
// before the send — the pattern the pipeline executor uses to overlap.
void pingpong_nonblocking(dist::Comm& comm, std::vector<float>& out,
                          std::vector<float>& in, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t tag = static_cast<std::uint64_t>(i);
    if (comm.rank() == 0) {
      dist::Request recv = comm.irecv(std::span<float>(in), 1, tag);
      comm.isend(std::span<const float>(out), 1, tag);
      recv.wait();
    } else {
      dist::Request recv = comm.irecv(std::span<float>(in), 0, tag);
      recv.wait();
      comm.isend(std::span<const float>(in), 0, tag);
    }
  }
}

void BM_P2pPingPongBlocking(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  dist::World world(2);
  for (auto _ : state) {
    world.run([len](dist::Comm& comm) {
      std::vector<float> buf(len, 1.0f);
      pingpong_blocking(comm, buf, /*rounds=*/16);
      benchmark::DoNotOptimize(buf.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * 2 * 16 * len * sizeof(float));
}
BENCHMARK(BM_P2pPingPongBlocking)->Arg(1 << 10)->Arg(1 << 14);

void BM_P2pPingPongNonblocking(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  dist::World world(2);
  for (auto _ : state) {
    world.run([len](dist::Comm& comm) {
      std::vector<float> out(len, 1.0f), in(len);
      pingpong_nonblocking(comm, out, in, /*rounds=*/16);
      benchmark::DoNotOptimize(in.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * 2 * 16 * len * sizeof(float));
}
BENCHMARK(BM_P2pPingPongNonblocking)->Arg(1 << 10)->Arg(1 << 14);

// ---- machine-readable sweep ---------------------------------------------------

struct SweepResult {
  std::string op;
  int world;
  std::int64_t elems;
  double ms;
  double mb_per_s;
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

SweepResult sweep_entry(const std::string& op, int world, std::int64_t elems,
                        double bytes_moved, const std::function<void()>& fn) {
  const double secs = time_best(fn);
  return SweepResult{op, world, elems, secs * 1e3, bytes_moved / secs / 1e6};
}

// One engine training run; returns best-of-reps per-step seconds and the
// executor's accumulated p2p byte counter summed over ranks.
struct EngineRun {
  double step_ms;
  std::uint64_t p2p_bytes;
};

EngineRun run_engine(int p, int t, int d, bool scatter_gather, bool overlap,
                     int steps) {
  model::GptConfig c;
  c.num_layers = static_cast<std::int64_t>(p);
  c.hidden = 32;
  c.heads = 4;
  c.vocab = 64;
  c.seq = 16;
  c.dropout = 0.0f;
  c.seed = 7;
  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(8000), c.seq);
  const std::int64_t B = 8, b = 1;

  std::atomic<std::uint64_t> bytes{0};
  double total_s = 0.0;
  dist::World world(p * t * d);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel.p = p;
    options.parallel.t = t;
    options.parallel.d = d;
    options.parallel.b = b;
    options.parallel.recompute = false;
    options.parallel.scatter_gather = scatter_gather;
    options.overlap_grad_reduce = overlap;
    options.global_batch = B;
    options.optimizer = core::EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.05f;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, B, b, d, engine.groups().coord().data, 3);
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < steps; ++s) engine.train_step(loader.next_batch(s));
    const auto t1 = std::chrono::steady_clock::now();
    if (comm.rank() == 0) {
      total_s = std::chrono::duration<double>(t1 - t0).count();
    }
    bytes.fetch_add(engine.executor().comm_stats().p2p_bytes_sent);
  });
  return EngineRun{total_s * 1e3 / steps, bytes.load()};
}

void run_sweep() {
  std::vector<SweepResult> results;

  // p2p ping-pong: blocking vs nonblocking (pre-posted reply receive).
  constexpr std::int64_t kLen = 1 << 14;
  constexpr int kRounds = 64;
  const double kPingBytes = 2.0 * kRounds * kLen * sizeof(float);
  {
    dist::World world(2);
    results.push_back(sweep_entry("p2p_pingpong_blocking", 2, kLen, kPingBytes, [&] {
      world.run([](dist::Comm& comm) {
        std::vector<float> buf(kLen, 1.0f);
        pingpong_blocking(comm, buf, kRounds);
      });
    }));
    results.push_back(
        sweep_entry("p2p_pingpong_nonblocking", 2, kLen, kPingBytes, [&] {
          world.run([](dist::Comm& comm) {
            std::vector<float> out(kLen, 1.0f), in(kLen);
            pingpong_nonblocking(comm, out, in, kRounds);
          });
        }));
  }

  // Bucketed DP all-reduce through GradReducer: DDP-style buckets vs one
  // all-reduce per parameter, 8 params x 32Ki elements on d = 4.
  {
    constexpr int kD = 4, kParams = 8;
    constexpr std::int64_t kElems = 1 << 15;
    const double kGradBytes = double(kParams) * kElems * sizeof(float) * kD;
    dist::World world(kD);
    // A cap of 1 gives every param a bucket of its own.
    for (const std::int64_t cap : {std::int64_t{1} << 18, std::int64_t{1}}) {
      const std::string op =
          cap > 1 ? "grad_reduce_bucketed" : "grad_reduce_per_param";
      results.push_back(sweep_entry(op, kD, kParams * kElems, kGradBytes, [&] {
        world.run([cap](dist::Comm& comm) {
          std::vector<std::unique_ptr<model::Param>> owned;
          model::ParamRefs refs;
          for (int i = 0; i < kParams; ++i) {
            auto p = std::make_unique<model::Param>();
            p->name = "p" + std::to_string(i);
            p->grad = tensor::Tensor({kElems});
            refs.push_back(p.get());
            owned.push_back(std::move(p));
          }
          comm::GradReducerOptions opts;
          opts.bucket_elems = cap;
          comm::GradReducer reducer({refs}, comm, opts);
          reducer.finish();
        });
      }));
    }
  }

  // Engine steps: gradient-reduction overlap on/off on a (p=2, d=2) grid,
  // and §4.1 scatter/gather on/off on the (p=2, t=2, d=2) acceptance grid.
  const int kSteps = 4;
  const EngineRun overlap_off = run_engine(2, 1, 2, false, false, kSteps);
  const EngineRun overlap_on = run_engine(2, 1, 2, false, true, kSteps);
  results.push_back(
      SweepResult{"engine_step_p2d2_overlap_off", 4, 0, overlap_off.step_ms, 0.0});
  results.push_back(
      SweepResult{"engine_step_p2d2_overlap_on", 4, 0, overlap_on.step_ms, 0.0});

  const EngineRun sg_off = run_engine(2, 2, 2, false, true, kSteps);
  const EngineRun sg_on = run_engine(2, 2, 2, true, true, kSteps);
  results.push_back(
      SweepResult{"engine_step_p2t2d2_sg_off", 8, 0, sg_off.step_ms, 0.0});
  results.push_back(
      SweepResult{"engine_step_p2t2d2_sg_on", 8, 0, sg_on.step_ms, 0.0});
  const double sg_ratio =
      sg_on.p2p_bytes > 0
          ? static_cast<double>(sg_off.p2p_bytes) / static_cast<double>(sg_on.p2p_bytes)
          : 0.0;

  std::printf("\np2p ping-pong %lld elems: blocking %.3f ms | nonblocking %.3f ms\n",
              static_cast<long long>(kLen), results[0].ms, results[1].ms);
  std::printf("scatter/gather inter-stage bytes: off %llu, on %llu (ratio %.2f, t=2)\n",
              static_cast<unsigned long long>(sg_off.p2p_bytes),
              static_cast<unsigned long long>(sg_on.p2p_bytes), sg_ratio);

  std::FILE* f = std::fopen("BENCH_collectives.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_collectives.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_collectives\",\n");
  std::fprintf(f, "  \"sg_off_p2p_bytes\": %llu,\n",
               static_cast<unsigned long long>(sg_off.p2p_bytes));
  std::fprintf(f, "  \"sg_on_p2p_bytes\": %llu,\n",
               static_cast<unsigned long long>(sg_on.p2p_bytes));
  std::fprintf(f, "  \"sg_p2p_bytes_ratio\": %.2f,\n", sg_ratio);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"world\": %d, \"elems\": %lld, "
                 "\"ms\": %.3f, \"mb_per_s\": %.1f}%s\n",
                 r.op.c_str(), r.world, static_cast<long long>(r.elems), r.ms,
                 r.mb_per_s, i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_collectives.json (%zu entries)\n", results.size());
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
