// Timeline-analyzer tests (DESIGN.md §11). Two layers of evidence:
//
//  1. Synthetic traces built straight from build_rank_schedule with uniform
//     per-op durations: the dependency replay must reproduce the paper's
//     bubble fraction (p−1)/(v·m) *exactly* and agree with
//     pipeline::simulate_makespan — the analyzer is the simulator fed with
//     measured durations, so on clean input they must coincide.
//
//     With unequal stages the bubble splits exactly into the closed form,
//     stage imbalance and (zero) jitter. With seeded per-op noise of known
//     amplitude (±10%) on top, the raw replay lands within 15% of the
//     per-chunk-median replay.
//
//  2. Real engine runs (p = 4) traced in kFull mode, v ∈ {1,2} × m ∈ {4,8}:
//     the global-median replay must equal (p−1)/(v·m), the raw bubble must
//     split exactly into closed form + imbalance + jitter, and traced
//     per-rank p2p byte counts must match the §4.1 closed form exactly
//     (fp32 runtime = 2× the paper's fp16 figures). Nothing here bounds the
//     host's own timing noise.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "ptdp/core/analytics.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/timeline.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/pipeline/schedule.hpp"

namespace ptdp::obs {
namespace {

using pipeline::ScheduleParams;
using pipeline::ScheduleType;

class ObsTimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    Tracer::instance().set_thread_capacity(std::size_t{1} << 15);
    MetricsRegistry::instance().reset();
    Tracer::instance().set_mode(TraceMode::kOff);
    bind_rank(-1);
  }
  void TearDown() override {
    Tracer::instance().set_mode(TraceMode::kOff);
    Tracer::instance().reset();
    MetricsRegistry::instance().reset();
    bind_rank(-1);
  }
};

/// The trace a run of `lanes` (one lane per pipeline rank) would produce:
/// every rank's ops in lane order, each lasting its duration for both wall
/// and CPU.
std::vector<TraceEvent> lanes_trace(
    const std::vector<std::vector<pipeline::ReplayOp>>& lanes, std::int64_t batch = 0) {
  std::vector<TraceEvent> events;
  for (std::size_t r = 0; r < lanes.size(); ++r) {
    std::int64_t idx = 0;
    for (const pipeline::ReplayOp& op : lanes[r]) {
      TraceEvent ev;
      ev.name = op.kind == pipeline::Op::Kind::kForward ? "fwd" : "bwd";
      ev.cat = Cat::kCompute;
      ev.rank = static_cast<int>(r);
      // Program order per rank is all the replay needs from timestamps.
      ev.ts_ns = batch * 1'000'000 + idx++;
      ev.wall_ns = static_cast<std::int64_t>(op.duration);
      ev.cpu_ns = static_cast<std::int64_t>(op.duration);
      ev.args[0] = {"mb", op.microbatch};
      ev.args[1] = {"vs", op.vs};
      ev.args[2] = {"stage", static_cast<std::int64_t>(r)};
      ev.args[3] = {"pipe", 0};
      ev.args[4] = {"batch", batch};
      events.push_back(ev);
    }
  }
  return events;
}

/// Builds the trace an ideal run of `sp` would produce: every rank's ops in
/// schedule order, per-op duration unit_of_rank(rank).
std::vector<TraceEvent> synthetic_trace(
    const ScheduleParams& sp, const std::function<std::int64_t(int)>& unit_of_rank,
    std::int64_t batch = 0) {
  const auto lanes = pipeline::schedule_lanes(sp, [&](const pipeline::Op&, int vs) {
    return static_cast<double>(unit_of_rank(vs % sp.p));
  });
  return lanes_trace(lanes, batch);
}

TEST_F(ObsTimelineTest, ReplayMatchesAnalyticBubbleExactly) {
  constexpr std::int64_t kUnit = 1000;
  const ScheduleParams grids[] = {
      {ScheduleType::kGPipe, 4, 4, 1},       {ScheduleType::kGPipe, 4, 8, 1},
      {ScheduleType::kOneFOneB, 4, 4, 1},    {ScheduleType::kOneFOneB, 4, 8, 1},
      {ScheduleType::kInterleaved, 4, 4, 2}, {ScheduleType::kInterleaved, 4, 8, 2},
  };
  for (const ScheduleParams& sp : grids) {
    SCOPED_TRACE(::testing::Message()
                 << pipeline::schedule_name(sp.type) << " p=" << sp.p
                 << " m=" << sp.m << " v=" << sp.v);
    const TimelineReport report =
        analyze_events(synthetic_trace(sp, [&](int) { return kUnit; }));
    ASSERT_EQ(report.batches.size(), 1u);
    const BatchTimeline& b = report.batches.front();
    EXPECT_EQ(b.p, sp.p);
    EXPECT_EQ(b.m, sp.m);
    EXPECT_EQ(b.num_virtual_stages, sp.p * sp.v);
    // Exact agreement with both the closed form and the logical simulator.
    EXPECT_NEAR(b.bubble_fraction, pipeline::analytic_bubble_fraction(sp), 1e-9);
    EXPECT_NEAR(report.bubble_fraction, report.analytic_bubble_fraction, 1e-9);
    EXPECT_NEAR(b.makespan_ns,
                pipeline::simulate_makespan(sp, static_cast<double>(kUnit),
                                            static_cast<double>(kUnit)),
                1e-6);
    // The binding-constraint walkback is gapless, so it sums to the makespan.
    EXPECT_FALSE(b.critical_path.empty());
    EXPECT_NEAR(b.critical_path_ns, b.makespan_ns, 1e-6);
  }
}

TEST_F(ObsTimelineTest, BatchesSegmentByPipeAndBatchArgs) {
  const ScheduleParams sp{ScheduleType::kOneFOneB, 4, 4, 1};
  std::vector<TraceEvent> events;
  for (std::int64_t batch = 0; batch < 3; ++batch) {
    const auto one = synthetic_trace(sp, [](int) { return std::int64_t{500}; }, batch);
    events.insert(events.end(), one.begin(), one.end());
  }
  const TimelineReport report = analyze_events(events);
  ASSERT_EQ(report.batches.size(), 3u);
  for (const BatchTimeline& b : report.batches) {
    EXPECT_NEAR(b.bubble_fraction, pipeline::analytic_bubble_fraction(sp), 1e-9);
  }
  ASSERT_EQ(report.ranks.size(), 4u);
  for (const RankTimeline& rt : report.ranks) {
    EXPECT_EQ(rt.ops, 3 * 2 * sp.m);  // 3 batches × (fwd+bwd) × m
  }
  EXPECT_TRUE(report.stragglers.empty());
}

TEST_F(ObsTimelineTest, FlagsStragglerRanks) {
  const ScheduleParams sp{ScheduleType::kOneFOneB, 4, 8, 1};
  const TimelineReport report = analyze_events(synthetic_trace(
      sp, [](int rank) { return rank == 2 ? std::int64_t{3000} : std::int64_t{1000}; }));
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers.front(), 2);
  // The straggler stretches the replayed makespan beyond the analytic bubble.
  EXPECT_GT(report.bubble_fraction, pipeline::analytic_bubble_fraction(sp));
}

TEST_F(ObsTimelineTest, BubbleSplitsIntoClosedFormImbalanceAndJitter) {
  const ScheduleParams grids[] = {{ScheduleType::kOneFOneB, 4, 8, 1},
                                  {ScheduleType::kInterleaved, 4, 8, 2}};
  for (const ScheduleParams& sp : grids) {
    SCOPED_TRACE(::testing::Message() << pipeline::schedule_name(sp.type));
    const int P = pipeline::num_virtual_stages(sp);
    // Stage 0 embeds (×1.5) and the last stage holds the head and loss (×2).
    const auto lanes =
        pipeline::schedule_lanes(sp, [&](const pipeline::Op& op, int vs) {
          const double unit = op.kind == pipeline::Op::Kind::kForward ? 1000.0 : 2000.0;
          return vs == 0 ? 1.5 * unit : vs == P - 1 ? 2.0 * unit : unit;
        });
    const TimelineReport report = analyze_events(lanes_trace(lanes));
    ASSERT_EQ(report.batches.size(), 1u);
    const BatchTimeline& b = report.batches.front();
    EXPECT_TRUE(b.replay_complete);

    auto expect_lanes = lanes;
    const double makespan = pipeline::replay(expect_lanes, P).makespan;
    double busy = 0;
    for (const auto& lane : lanes) {
      for (const pipeline::ReplayOp& op : lane) busy += op.duration;
    }
    const double ideal = busy / sp.p;
    EXPECT_DOUBLE_EQ(b.makespan_ns, makespan);
    EXPECT_DOUBLE_EQ(b.bubble_fraction, (makespan - ideal) / ideal);

    EXPECT_DOUBLE_EQ(b.closed_form_bubble, pipeline::analytic_bubble_fraction(sp));
    EXPECT_GT(b.imbalance_bubble, 0.0);
    EXPECT_EQ(b.jitter_bubble, 0.0);
    EXPECT_NEAR(b.closed_form_bubble + b.imbalance_bubble + b.jitter_bubble,
                b.bubble_fraction, 1e-12);

    // A stage that was not traced: its boundaries impose no constraint and
    // the remaining ranks still replay completely.
    auto missing = lanes;
    missing[2].clear();
    const TimelineReport partial = analyze_events(lanes_trace(missing));
    ASSERT_EQ(partial.batches.size(), 1u);
    EXPECT_EQ(partial.batches.front().p, sp.p - 1);
    EXPECT_TRUE(partial.batches.front().replay_complete);
    EXPECT_GT(partial.batches.front().makespan_ns, 0.0);
    EXPECT_FALSE(format_report(partial).empty());
  }
}

// Unequal stages (as in the engine: stage 0 embeds, the last holds the head
// and loss) with seeded per-op noise of known amplitude, every duration
// scaled by 1 + 0.1·u, u uniform in [−1, 1): the noise lands in the jitter
// term, and the raw replay stays within 15% of the per-chunk-median replay.
// The data are seeded, so the measured distances are fixed: 0.004–0.034
// over this grid, the bound 4x above the largest.
TEST_F(ObsTimelineTest, SeededJitterStaysWithin15PercentOfPerChunkMedianReplay) {
  const ScheduleParams grids[] = {
      {ScheduleType::kOneFOneB, 4, 4, 1},    {ScheduleType::kOneFOneB, 4, 8, 1},
      {ScheduleType::kInterleaved, 4, 4, 2}, {ScheduleType::kInterleaved, 4, 8, 2}};
  for (const ScheduleParams& sp : grids) {
    SCOPED_TRACE(::testing::Message() << "v=" << sp.v << " m=" << sp.m);
    const int P = pipeline::num_virtual_stages(sp);
    Rng rng(31, static_cast<std::uint64_t>(sp.v * 100 + sp.m));
    const auto lanes = pipeline::schedule_lanes(sp, [&](const pipeline::Op& op, int vs) {
      const double unit = op.kind == pipeline::Op::Kind::kForward ? 1000.0 : 2000.0;
      const double stage = vs == 0 ? 1.5 * unit : vs == P - 1 ? 2.0 * unit : unit;
      return stage * (1.0 + 0.1 * rng.next_uniform(-1.0, 1.0));
    });
    const TimelineReport report = analyze_events(lanes_trace(lanes));
    ASSERT_EQ(report.batches.size(), 1u);
    const BatchTimeline& b = report.batches.front();
    EXPECT_NEAR(b.closed_form_bubble, pipeline::analytic_bubble_fraction(sp), 1e-9);
    EXPECT_GT(b.imbalance_bubble, 0.0);
    EXPECT_NE(b.jitter_bubble, 0.0);
    EXPECT_NEAR(b.closed_form_bubble + b.imbalance_bubble + b.jitter_bubble,
                b.bubble_fraction, 1e-12);
    const double reference = b.closed_form_bubble + b.imbalance_bubble;
    const double distance = std::abs(b.bubble_fraction - reference) / reference;
    EXPECT_LE(distance, 0.15) << "raw bubble is " << distance
                              << " away from its per-chunk-median replay";
  }
}

TEST_F(ObsTimelineTest, DependencyCycleIsReportedNotFatal) {
  const ScheduleParams sp{ScheduleType::kOneFOneB, 2, 2, 1};
  auto lanes =
      pipeline::schedule_lanes(sp, [](const pipeline::Op&, int) { return 1.0; });
  // Rank 0 runs its last backward first: it waits on rank 1's backward,
  // which waits on rank 0's forward queued behind it.
  std::rotate(lanes[0].rbegin(), lanes[0].rbegin() + 1, lanes[0].rend());
  const TimelineReport report = analyze_events(lanes_trace(lanes));
  ASSERT_EQ(report.batches.size(), 1u);
  EXPECT_FALSE(report.batches.front().replay_complete);
  EXPECT_NE(format_report(report).find("incomplete"), std::string::npos);
}

// ---- real engine runs -------------------------------------------------------------

// Larger than the correctness-test config on purpose: per-op compute must
// dominate the tracer/allocator overheads or the measured bubble drifts
// above the analytic value (the ops are only tens of microseconds).
model::GptConfig engine_config() {
  model::GptConfig c;
  c.num_layers = 8;
  c.hidden = 128;
  c.heads = 4;
  c.vocab = 64;
  c.seq = 64;
  c.dropout = 0.0f;
  c.seed = 2024;
  return c;
}

/// Runs `steps` training steps on a (p=4, t=1, d=1) engine with tracing in
/// kFull mode and returns the timeline report.
TimelineReport traced_engine_run(int v, std::int64_t m, int steps) {
  Tracer::instance().reset();
  Tracer::instance().set_mode(TraceMode::kFull);
  const model::GptConfig c = engine_config();
  data::SyntheticCorpus corpus(c.vocab, 55);
  data::TokenDataset dataset(corpus.generate(4000), c.seq);

  dist::World world(4);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel.p = 4;
    options.parallel.t = 1;
    options.parallel.d = 1;
    options.parallel.v = v;
    options.parallel.b = 1;
    options.parallel.schedule =
        v > 1 ? ScheduleType::kInterleaved : ScheduleType::kOneFOneB;
    options.parallel.recompute = false;
    options.parallel.scatter_gather = false;
    options.global_batch = m;  // b = 1, d = 1 => m microbatches
    options.optimizer = core::EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.1f;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(dataset, m, 1, 1, engine.groups().coord().data,
                               /*seed=*/88);
    for (int s = 0; s < steps; ++s) {
      auto mbs = loader.next_batch(s);
      engine.train_step(mbs);
    }
  });
  const TimelineReport report = analyze(Tracer::instance());
  Tracer::instance().set_mode(TraceMode::kOff);
  return report;
}

TEST_F(ObsTimelineTest, MeasuredBubbleSplitsExactlyIntoClosedFormImbalanceAndJitter) {
  const int steps = 6;
  const struct { int v; std::int64_t m; } grid[] = {{1, 4}, {1, 8}, {2, 4}, {2, 8}};
  for (const auto& g : grid) {
    SCOPED_TRACE(::testing::Message() << "v=" << g.v << " m=" << g.m);
    const TimelineReport report = traced_engine_run(g.v, g.m, steps);
    ASSERT_EQ(report.batches.size(), static_cast<std::size_t>(steps));
    const double analytic =
        3.0 / (static_cast<double>(g.v) * static_cast<double>(g.m));
    EXPECT_NEAR(report.analytic_bubble_fraction, analytic, 1e-12);
    // The paper's (p−1)/(v·m) assumes equal stages. Replaying the trace
    // with every op at its batch's fwd/bwd median realizes exactly that, on
    // any host.
    for (const BatchTimeline& b : report.batches) {
      EXPECT_NEAR(b.closed_form_bubble, analytic, 1e-9) << "batch " << b.batch;
    }
    // Stage 0 embeds and the last stage holds the head and the loss: the
    // per-chunk-median replay differs from the closed form by the stage
    // imbalance, and the raw replay from it by the host's per-op noise. The
    // three parts sum to the raw bubble exactly, whatever that noise is.
    for (const BatchTimeline& b : report.batches) {
      EXPECT_TRUE(b.replay_complete) << "batch " << b.batch;
      EXPECT_NEAR(b.closed_form_bubble + b.imbalance_bubble + b.jitter_bubble,
                  b.bubble_fraction, 1e-9)
          << "batch " << b.batch;
    }
  }
}

TEST_F(ObsTimelineTest, TracedP2pBytesMatchSection41ClosedForm) {
  const int steps = 3, p = 4, v = 2;
  const std::int64_t m = 8;
  const model::GptConfig c = engine_config();
  const TimelineReport report = traced_engine_run(v, m, steps);
  ASSERT_EQ(report.ranks.size(), 4u);

  // Runtime activations are fp32: each boundary message is b·s·h·4 bytes.
  const std::uint64_t msg_bytes = static_cast<std::uint64_t>(1 * c.seq * c.hidden) * 4;
  for (const RankTimeline& rt : report.ranks) {
    const int r = rt.rank;
    ASSERT_GE(r, 0);
    ASSERT_LT(r, p);
    // Interleaved sends at every chunk boundary except the global first
    // (backward) and global last (forward) virtual stages.
    const std::uint64_t msgs_per_batch = static_cast<std::uint64_t>(m) *
        static_cast<std::uint64_t>(2 * v - (r == 0 ? 1 : 0) - (r == p - 1 ? 1 : 0));
    EXPECT_EQ(rt.p2p_messages, msgs_per_batch * steps) << "rank " << r;
    EXPECT_EQ(rt.p2p_bytes_sent, msgs_per_batch * msg_bytes * steps) << "rank " << r;
  }

  // Cross-check interior ranks against the analytics closed form (§4.1):
  // analytics counts fp16 bytes per direction, the runtime moves fp32 both
  // directions, so traced = 4 × analytic per batch.
  core::ParallelConfig cfg;
  cfg.p = p;
  cfg.t = 1;
  cfg.d = 1;
  cfg.v = v;
  cfg.b = 1;
  cfg.scatter_gather = false;
  const double analytic_per_batch = core::pipeline_p2p_bytes_per_batch(c, cfg, m);
  for (const RankTimeline& rt : report.ranks) {
    if (rt.rank == 0 || rt.rank == p - 1) continue;
    EXPECT_DOUBLE_EQ(static_cast<double>(rt.p2p_bytes_sent),
                     4.0 * analytic_per_batch * steps);
  }
}

}  // namespace
}  // namespace ptdp::obs
