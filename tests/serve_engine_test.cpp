// Continuous-batching scheduler tests: engine token streams are bitwise
// the full-forward oracle's (greedy and sampled, serial and 2-way tensor
// parallel), evicted sequences resume bitwise after re-admission, the KV
// block budget is never exceeded mid-run, no request starves even under
// minimal KV capacity, the steady-state pool never grows, and the latency
// histograms report the runs' exact percentiles within one bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>
#include <vector>

#include "ptdp/dist/world.hpp"
#include "ptdp/model/generate.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/serve/loadgen.hpp"

namespace ptdp::serve {
namespace {

model::GptConfig tiny() {
  model::GptConfig c;
  c.num_layers = 2;
  c.hidden = 32;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 24;
  c.dropout = 0.0f;
  c.seed = 41;
  return c;
}

model::StageSpec whole(const model::GptConfig& c) {
  return model::StageSpec{true, true, 0, c.num_layers, false};
}

EngineOptions small_engine(std::int64_t capacity_blocks) {
  EngineOptions eo;
  eo.block_tokens = 4;
  eo.capacity_blocks = capacity_blocks;
  eo.max_batch_tokens = 32;
  eo.prefill_chunk = 4;
  eo.max_running = 16;
  eo.record_metrics = false;
  return eo;
}

LoadGenOptions small_load(const model::GptConfig& c, std::uint64_t seed) {
  LoadGenOptions lo;
  lo.users = 8;
  lo.requests_per_user = 2;
  lo.prompt_min = 2;
  lo.prompt_max = 8;
  lo.max_new_min = 3;
  lo.max_new_max = 10;
  lo.think_steps_max = 2;
  lo.window = c.seq;
  lo.vocab = c.vocab;
  lo.seed = seed;
  return lo;
}

/// Drives engine + loadgen to completion; asserts budget invariants every
/// step. Returns finished requests keyed by id.
std::map<std::uint64_t, FinishedRequest> drive(ServeEngine& engine,
                                               LoadGen& lg) {
  std::map<std::uint64_t, FinishedRequest> out;
  std::int64_t step = 0;
  while (!lg.done()) {
    EXPECT_LT(step, 20000) << "engine did not drain";
    if (step >= 20000) break;
    lg.tick(step, engine);
    const auto done = engine.step();
    // Budget invariants hold after (and therefore between) every step.
    const auto& alloc = engine.kv().allocator();
    EXPECT_LE(alloc.live_blocks(), engine.options().capacity_blocks);
    EXPECT_LE(alloc.peak_live_blocks(), engine.options().capacity_blocks);
    EXPECT_EQ(alloc.live_blocks(), engine.kv().total_table_blocks());
    lg.on_finished(done, step);
    for (const auto& fin : done) out.emplace(fin.id, fin);
    ++step;
  }
  return out;
}

void expect_matches_oracle(model::GptStage& stage, const LoadGen& lg,
                           const std::map<std::uint64_t, FinishedRequest>& fins) {
  for (const auto& [id, fin] : fins) {
    const Request& req = lg.request(id);
    model::GenerateOptions oracle = req.options;
    oracle.use_kv_cache = false;
    oracle.max_new_tokens = static_cast<std::int64_t>(fin.tokens.size());
    const auto full = model::generate(stage, req.prompt, oracle);
    ASSERT_EQ(full.size(), req.prompt.size() + fin.tokens.size());
    EXPECT_TRUE(std::equal(
        fin.tokens.begin(), fin.tokens.end(),
        full.begin() + static_cast<std::ptrdiff_t>(req.prompt.size())))
        << "request " << id << " diverged from the full-forward oracle";
  }
}

TEST(ServeEngine, MatchesOracleGreedyAndSampled) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  ServeEngine engine(stage, small_engine(/*capacity=*/64));  // ample KV
  LoadGen lg(small_load(c, /*seed=*/21));  // ~half the requests sample
  const auto fins = drive(engine, lg);
  ASSERT_EQ(fins.size(), 16u);
  EXPECT_EQ(engine.stats().preemptions, 0);
  expect_matches_oracle(stage, lg, fins);
}

TEST(ServeEngine, MatchesOracleAcrossTheSecondGemmKPanel) {
  // Prompts of 240-290 tokens prefilled in 32-token chunks under a budget
  // that splits chunks unevenly: chunks straddle position 256, where the
  // P·V contraction gains its second 256-deep k panel. Streams must stay
  // bitwise the full-forward oracle's.
  model::GptConfig c = tiny();
  c.seq = 320;
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  EngineOptions eo = small_engine(/*capacity=*/160);
  eo.block_tokens = 8;
  eo.prefill_chunk = 32;
  eo.max_batch_tokens = 48;
  ServeEngine engine(stage, eo);
  LoadGenOptions lo = small_load(c, /*seed=*/13);
  lo.users = 3;
  lo.requests_per_user = 1;
  lo.prompt_min = 240;
  lo.prompt_max = 290;
  lo.max_new_min = 4;
  lo.max_new_max = 12;
  LoadGen lg(lo);
  const auto fins = drive(engine, lg);
  ASSERT_EQ(fins.size(), 3u);
  expect_matches_oracle(stage, lg, fins);
}

TEST(ServeEngine, EvictedSequencesResumeBitwise) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  // Capacity fits ~2 full sequences out of 8 concurrent: heavy eviction.
  ServeEngine engine(stage, small_engine(/*capacity=*/12));
  LoadGenOptions lo = small_load(c, /*seed=*/33);
  lo.think_steps_max = 0;  // all users hammer at once
  LoadGen lg(lo);
  const auto fins = drive(engine, lg);
  ASSERT_EQ(fins.size(), 16u);
  EXPECT_GT(engine.stats().preemptions, 0) << "test did not exercise eviction";
  std::int64_t preempted_requests = 0;
  for (const auto& [id, fin] : fins) preempted_requests += fin.preemptions > 0;
  EXPECT_GT(preempted_requests, 0);
  // Every stream — including the evicted-and-resumed ones — is bitwise
  // what an uninterrupted full-forward decode would have produced.
  expect_matches_oracle(stage, lg, fins);
}

TEST(ServeEngine, NoStarvationAtMinimalCapacity) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  // The least KV that can serve one maximal sequence (window - 1 cached
  // positions). Everything must still complete, essentially serially.
  const std::int64_t min_blocks = (c.seq - 1 + 4 - 1) / 4;
  ServeEngine engine(stage, small_engine(min_blocks));
  LoadGenOptions lo = small_load(c, /*seed=*/5);
  lo.think_steps_max = 0;
  LoadGen lg(lo);
  const auto fins = drive(engine, lg);
  EXPECT_EQ(fins.size(), 16u);  // nobody starves
  expect_matches_oracle(stage, lg, fins);
}

TEST(ServeEngine, OldestRequestFinishesFirstUnderPressure) {
  // Eviction only ever claims strictly-younger sequences, so the first
  // submission must be the first to finish when everyone arrives at once
  // with identical lengths.
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  ServeEngine engine(stage, small_engine(/*capacity=*/10));
  for (std::uint64_t id = 1; id <= 6; ++id) {
    Request r;
    r.id = id;
    r.prompt = {3, 7, static_cast<std::int32_t>(id)};
    r.options.max_new_tokens = 8;
    engine.submit(std::move(r));
  }
  std::vector<std::uint64_t> finish_order;
  std::int64_t step = 0;
  while (!engine.idle()) {
    ASSERT_LT(step++, 20000);
    for (const auto& fin : engine.step()) finish_order.push_back(fin.id);
  }
  ASSERT_EQ(finish_order.size(), 6u);
  EXPECT_EQ(finish_order.front(), 1u);
}

TEST(ServeEngine, TensorParallelMatchesSerial) {
  const model::GptConfig c = tiny();
  const std::uint64_t seed = 9;

  // Serial reference run (same seeds, same load).
  dist::Comm solo = dist::Comm::solo();
  model::GptStage serial(c, solo, whole(c));
  ServeEngine ref_engine(serial, small_engine(/*capacity=*/16));
  LoadGen ref_lg(small_load(c, seed));
  const auto expected = drive(ref_engine, ref_lg);
  ASSERT_EQ(expected.size(), 16u);

  // Two tensor ranks run their own engine instance; scheduling is
  // step-driven, so they batch identically and sample identical tokens.
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    model::GptStage stage(c, comm, whole(c));
    EngineOptions eo = small_engine(/*capacity=*/16);
    eo.record_metrics = comm.rank() == 0;
    ServeEngine engine(stage, eo);
    LoadGen lg(small_load(c, seed));
    const auto fins = drive(engine, lg);
    ASSERT_EQ(fins.size(), expected.size());
    for (const auto& [id, fin] : fins) {
      EXPECT_EQ(fin.tokens, expected.at(id).tokens)
          << "rank " << comm.rank() << " request " << id;
    }
  });
}

TEST(ServeEngine, ZeroPoolGrowthAcrossRequestWaves) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  ServeEngine engine(stage, small_engine(/*capacity=*/24));

  auto wave = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      Request r;
      r.id = base + i;
      r.prompt = {1, 2, 3, 4};
      r.options.max_new_tokens = 6;
      engine.submit(std::move(r));
    }
    std::int64_t step = 0;
    while (!engine.idle()) {
      ASSERT_LT(step++, 20000);
      engine.step();
    }
  };

  wave(100);  // warm-up: blocks are acquired from the pool here
  const std::int64_t acquires = engine.kv().allocator().pool_acquires();
  for (std::uint64_t w = 1; w <= 10; ++w) wave(1000 * w);
  EXPECT_EQ(engine.kv().allocator().pool_acquires(), acquires)
      << "steady-state serving grew the pool";
  EXPECT_EQ(engine.kv().allocator().live_blocks(), 0);
}

TEST(ServeEngine, WindowFullRequestFinishesEmpty) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  ServeEngine engine(stage, small_engine(/*capacity=*/16));
  Request r;
  r.id = 1;
  r.prompt.assign(static_cast<std::size_t>(c.seq), 2);  // no room to generate
  r.options.max_new_tokens = 8;
  engine.submit(std::move(r));
  const auto done = engine.step();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].tokens.empty());
  EXPECT_TRUE(engine.idle());
}

/// Nearest-rank percentile: the ceil(q·n)-th smallest sample.
double exact_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::max<std::size_t>(rank, 1) - 1];
}

TEST(ServeEngine, LatencyHistogramsMatchExactPercentiles) {
  // serve.tbt_ms / serve.ttft_ms quantiles agree with exact percentiles of
  // the same FinishedRequest timings within one log-linear bucket (≤ 1/32
  // of the value).
  obs::Tracer::instance().set_mode(obs::TraceMode::kMetricsOnly);
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  EngineOptions eo = small_engine(/*capacity=*/64);
  eo.record_metrics = true;
  ServeEngine engine(stage, eo);
  LoadGen lg(small_load(c, /*seed=*/21));
  const auto fins = drive(engine, lg);
  obs::Tracer::instance().set_mode(obs::TraceMode::kOff);
  ASSERT_EQ(fins.size(), 16u);

  std::vector<double> tbt, ttft;
  for (const auto& [id, fin] : fins) {
    ttft.push_back(fin.first_token_ms - fin.submit_ms);
    for (std::size_t i = 1; i < fin.token_ms.size(); ++i) {
      tbt.push_back(fin.token_ms[i] - fin.token_ms[i - 1]);
    }
  }
  const obs::Histogram& tbt_h = reg.histogram("serve.tbt_ms");
  const obs::Histogram& ttft_h = reg.histogram("serve.ttft_ms");
  ASSERT_EQ(tbt_h.count(), tbt.size());
  ASSERT_EQ(ttft_h.count(), ttft.size());
  for (const double q : {0.5, 0.99}) {
    const double tbt_exact = exact_percentile(tbt, q);
    const double ttft_exact = exact_percentile(ttft, q);
    EXPECT_NEAR(tbt_h.quantile(q), tbt_exact, tbt_exact / 32 + 1e-9) << "q=" << q;
    EXPECT_NEAR(ttft_h.quantile(q), ttft_exact, ttft_exact / 32 + 1e-9) << "q=" << q;
  }
  reg.reset();
}

TEST(ServeEngine, StepSpanCoversSchedulingAndSampling) {
  // serve.step is the whole working step: every serve.schedule and
  // serve.sample span lies inside one, and together they take no more than
  // the step that holds them.
  obs::Tracer::instance().reset();
  obs::Tracer::instance().set_mode(obs::TraceMode::kFull);
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  EngineOptions eo = small_engine(/*capacity=*/64);
  eo.record_metrics = true;
  ServeEngine engine(stage, eo);
  LoadGen lg(small_load(c, /*seed=*/22));
  ASSERT_EQ(drive(engine, lg).size(), 16u);
  obs::Tracer::instance().set_mode(obs::TraceMode::kOff);
  const std::vector<obs::TraceEvent> events = obs::Tracer::instance().snapshot();
  obs::Tracer::instance().reset();
  ASSERT_EQ(obs::Tracer::instance().events_dropped(), 0u);

  std::vector<const obs::TraceEvent*> steps;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.name) == "serve.step") steps.push_back(&e);
  }
  ASSERT_FALSE(steps.empty());
  std::vector<std::int64_t> inner_ns(steps.size(), 0);
  std::int64_t schedules = 0, samples = 0;
  for (const obs::TraceEvent& e : events) {
    const std::string_view name(e.name);
    if (name != "serve.schedule" && name != "serve.sample") continue;
    (name == "serve.schedule" ? schedules : samples) += 1;
    std::size_t owner = steps.size();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i]->ts_ns <= e.ts_ns &&
          e.ts_ns + e.wall_ns <= steps[i]->ts_ns + steps[i]->wall_ns) {
        owner = i;
      }
    }
    ASSERT_LT(owner, steps.size()) << name << " outside every serve.step";
    inner_ns[owner] += e.wall_ns;
  }
  EXPECT_EQ(schedules, static_cast<std::int64_t>(steps.size()));
  EXPECT_GT(samples, 0);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_LE(inner_ns[i], steps[i]->wall_ns) << "step " << i;
  }
}

TEST(ServeEngine, RejectsBadRequests) {
  const model::GptConfig c = tiny();
  dist::Comm solo = dist::Comm::solo();
  model::GptStage stage(c, solo, whole(c));
  ServeEngine engine(stage, small_engine(/*capacity=*/16));
  Request empty;
  empty.id = 1;
  EXPECT_THROW(engine.submit(std::move(empty)), CheckError);

  Request ok;
  ok.id = 2;
  ok.prompt = {1};
  engine.submit(std::move(ok));
  Request dup;
  dup.id = 2;
  dup.prompt = {1};
  EXPECT_THROW(engine.submit(std::move(dup)), CheckError);

  Request long_prompt;
  long_prompt.id = 3;
  long_prompt.prompt.assign(static_cast<std::size_t>(c.seq + 1), 0);
  EXPECT_THROW(engine.submit(std::move(long_prompt)), CheckError);
}

}  // namespace
}  // namespace ptdp::serve
