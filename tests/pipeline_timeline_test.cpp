// Timeline properties: the per-rank TimedOps returned by simulate_timeline
// must be internally consistent — non-overlapping on a rank, ordered by
// start, dependency-respecting across ranks, and consistent with
// simulate_makespan. Property-swept over schedules.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "ptdp/pipeline/schedule.hpp"

namespace ptdp::pipeline {
namespace {

using Params = std::tuple<ScheduleType, int, int, int>;  // (type, p, m, v)

class TimelineTest : public ::testing::TestWithParam<Params> {
 protected:
  ScheduleParams sp() const {
    const auto [type, p, m, v] = GetParam();
    return ScheduleParams{type, p, m, v};
  }
};

TEST_P(TimelineTest, RankOpsAreSequentialAndNonOverlapping) {
  const auto timeline = simulate_timeline(sp(), 1.0, 2.0);
  ASSERT_EQ(timeline.size(), static_cast<std::size_t>(sp().p));
  for (const auto& rank_ops : timeline) {
    double prev_end = 0.0;
    for (const TimedOp& t : rank_ops) {
      EXPECT_GE(t.start, prev_end - 1e-12);
      EXPECT_GT(t.end, t.start);
      prev_end = t.end;
    }
  }
}

TEST_P(TimelineTest, DurationsMatchOpKinds) {
  const double tf = 1.0, tb = 2.5;
  const auto timeline = simulate_timeline(sp(), tf, tb);
  for (const auto& rank_ops : timeline) {
    for (const TimedOp& t : rank_ops) {
      const double expect = t.op.kind == Op::Kind::kForward ? tf : tb;
      EXPECT_NEAR(t.end - t.start, expect, 1e-12);
    }
  }
}

TEST_P(TimelineTest, CrossRankDependenciesRespected) {
  const auto params = sp();
  const auto timeline = simulate_timeline(params, 1.0, 2.0);
  const int P = num_virtual_stages(params);
  // Index completion times by (kind, mb, virtual stage).
  std::map<std::tuple<int, int, int>, double> done;
  std::map<std::tuple<int, int, int>, double> started;
  for (int r = 0; r < params.p; ++r) {
    for (const TimedOp& t : timeline[static_cast<std::size_t>(r)]) {
      const int vs = virtual_stage(r, t.op.chunk, params.p);
      const int kind = t.op.kind == Op::Kind::kForward ? 0 : 1;
      done[{kind, t.op.microbatch, vs}] = t.end;
      started[{kind, t.op.microbatch, vs}] = t.start;
    }
  }
  for (const auto& [key, start] : started) {
    const auto [kind, mb, vs] = key;
    if (kind == 0 && vs > 0) {
      EXPECT_GE(start, done.at({0, mb, vs - 1}) - 1e-12)
          << "fwd mb" << mb << " vs" << vs;
    }
    if (kind == 1) {
      if (vs == P - 1) {
        EXPECT_GE(start, done.at({0, mb, vs}) - 1e-12);
      } else {
        EXPECT_GE(start, done.at({1, mb, vs + 1}) - 1e-12)
            << "bwd mb" << mb << " vs" << vs;
      }
    }
  }
}

TEST_P(TimelineTest, MakespanAgreesWithTimeline) {
  const auto params = sp();
  const auto timeline = simulate_timeline(params, 1.0, 2.0);
  double max_end = 0.0;
  for (const auto& rank_ops : timeline) {
    for (const TimedOp& t : rank_ops) max_end = std::max(max_end, t.end);
  }
  EXPECT_DOUBLE_EQ(max_end, simulate_makespan(params, 1.0, 2.0));
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, TimelineTest,
    ::testing::Values(Params{ScheduleType::kGPipe, 4, 8, 1},
                      Params{ScheduleType::kOneFOneB, 4, 8, 1},
                      Params{ScheduleType::kOneFOneB, 2, 3, 1},
                      Params{ScheduleType::kOneFOneB, 8, 16, 1},
                      Params{ScheduleType::kInterleaved, 4, 8, 2},
                      Params{ScheduleType::kInterleaved, 2, 6, 3},
                      Params{ScheduleType::kGPipe, 1, 5, 1}));

TEST(Timeline, FirstRankStartsAtZero) {
  const auto timeline =
      simulate_timeline({ScheduleType::kOneFOneB, 4, 8, 1}, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(timeline[0].front().start, 0.0);
  // Rank r's first forward starts after r upstream forwards.
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(timeline[static_cast<std::size_t>(r)].front().start,
                     static_cast<double>(r));
  }
}

TEST(Replay, BindingPredecessorIsTheLaterConstraint) {
  // Two lanes, one microbatch, two virtual stages.
  std::vector<std::vector<ReplayOp>> lanes = {
      {{Op::Kind::kForward, 0, 0, 1.0}, {Op::Kind::kBackward, 0, 0, 4.0}},
      {{Op::Kind::kForward, 0, 1, 2.0}, {Op::Kind::kBackward, 0, 1, 3.0}},
  };
  const ReplayResult r = replay(lanes, 2);
  ASSERT_TRUE(r.complete);
  EXPECT_DOUBLE_EQ(lanes[1][0].start, 1.0);  // after Fwd(0, 0)
  EXPECT_EQ(lanes[1][0].pred.lane, 0);
  EXPECT_DOUBLE_EQ(lanes[0][1].start, 6.0);  // after Bwd(0, 1), not Fwd(0, 0)
  EXPECT_EQ(lanes[0][1].pred.lane, 1);
  EXPECT_EQ(lanes[0][1].pred.index, 1);
  EXPECT_EQ(r.last.lane, 0);
  EXPECT_EQ(r.last.index, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(Replay, MissingDependencyImposesNoConstraint) {
  // Stage 0 was not traced: stage 1's forward starts at once.
  std::vector<std::vector<ReplayOp>> lanes = {
      {{Op::Kind::kForward, 0, 1, 2.0}, {Op::Kind::kBackward, 0, 1, 3.0}},
  };
  const ReplayResult r = replay(lanes, 2);
  ASSERT_TRUE(r.complete);
  EXPECT_DOUBLE_EQ(lanes[0][0].start, 0.0);
  EXPECT_LT(lanes[0][0].pred.lane, 0);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
}

TEST(Replay, CycleIsReportedIncomplete) {
  // Lane 0 runs Bwd(0, 0) before Fwd(0, 0): Bwd(0, 0) needs Bwd(0, 1),
  // which needs Fwd(0, 1), which needs Fwd(0, 0).
  std::vector<std::vector<ReplayOp>> lanes = {
      {{Op::Kind::kBackward, 0, 0, 1.0}, {Op::Kind::kForward, 0, 0, 1.0}},
      {{Op::Kind::kForward, 0, 1, 1.0}, {Op::Kind::kBackward, 0, 1, 1.0}},
  };
  const ReplayResult r = replay(lanes, 2);
  EXPECT_FALSE(r.complete);
  EXPECT_LT(lanes[0][0].end, 0.0);
  EXPECT_LT(r.last.lane, 0);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

}  // namespace
}  // namespace ptdp::pipeline
