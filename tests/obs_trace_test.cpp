// ptdp::obs tracer + metrics tests: tag-space decoding, mode gating, span
// recording, ring overflow accounting, Chrome JSON export shape, the
// metrics registry, and per-(rank, group) comm volumes from a real World
// run. The tracer and registry are process-wide singletons, so every test
// resets them and restores kOff on exit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ptdp/dist/tags.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/obs/metrics.hpp"
#include "ptdp/obs/trace.hpp"
#include "ptdp/runtime/rng.hpp"

namespace ptdp::obs {
namespace {

class ObsFixture : public ::testing::Test {
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

using ObsTagsTest = ObsFixture;
using ObsTraceTest = ObsFixture;
using ObsMetricsTest = ObsFixture;

TEST_F(ObsTagsTest, PipelineTagRoundTrips) {
  namespace tags = dist::tags;
  for (const bool backward : {false, true}) {
    for (const bool eval : {false, true}) {
      for (const std::int64_t mb : {std::int64_t{0}, std::int64_t{7},
                                    (std::int64_t{1} << 38) - 1}) {
        for (const int chunk : {0, 3, 255}) {
          const std::uint64_t tag = tags::make_pipeline_tag(backward, eval, mb, chunk);
          EXPECT_LT(tag, tags::kUserTagLimit);
          EXPECT_FALSE(tags::is_collective(tag));
          const tags::DecodedTag d = tags::decode(tag);
          EXPECT_EQ(d.backward, backward);
          EXPECT_EQ(d.eval, eval);
          EXPECT_EQ(d.microbatch, mb);
          EXPECT_EQ(d.chunk, chunk);
        }
      }
    }
  }
}

TEST_F(ObsTagsTest, CollectiveTagsAreDisjointFromPipelineTags) {
  namespace tags = dist::tags;
  for (const std::uint64_t t :
       {tags::kBarrierTag, tags::kBroadcastTag, tags::kAllReduceTag,
        tags::kReduceScatterTag, tags::kAllGatherTag, tags::kAllGatherVarTag}) {
    EXPECT_TRUE(tags::is_collective(t));
    EXPECT_GE(t, tags::kUserTagLimit);
  }
  // The whole pipeline-tag range sits strictly below the collective range.
  const std::uint64_t max_pipeline = tags::make_pipeline_tag(
      true, true, (std::int64_t{1} << 38) - 1, 255);
  EXPECT_LT(max_pipeline, tags::kCollectiveBase);
}

TEST_F(ObsTraceTest, OffModeRecordsNothing) {
  { Span span("never", Cat::kCompute); }
  instant("never_instant", Cat::kRuntime);
  EXPECT_EQ(Tracer::instance().events_recorded(), 0u);
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST_F(ObsTraceTest, MetricsOnlyModeRecordsNoSpans) {
  Tracer::instance().set_mode(TraceMode::kMetricsOnly);
  EXPECT_TRUE(metrics_on());
  EXPECT_FALSE(spans_on());
  { Span span("never", Cat::kCompute); }
  EXPECT_EQ(Tracer::instance().events_recorded(), 0u);
}

TEST_F(ObsTraceTest, SpanRecordsDurationsAndArgs) {
  Tracer::instance().set_mode(TraceMode::kFull);
  bind_rank(3);
  {
    Span span("work", Cat::kCompute, {{"mb", 5}, {"vs", 2}});
    span.arg("bytes", 1024);
  }
  instant("marker", Cat::kRuntime, {{"step", 7}});
  const auto events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& span_ev = events[0].wall_ns >= 0 ? events[0] : events[1];
  const TraceEvent& inst_ev = events[0].wall_ns >= 0 ? events[1] : events[0];
  EXPECT_STREQ(span_ev.name, "work");
  EXPECT_EQ(span_ev.rank, 3);
  EXPECT_GE(span_ev.wall_ns, 0);
  EXPECT_EQ(span_ev.arg("mb", -1), 5);
  EXPECT_EQ(span_ev.arg("vs", -1), 2);
  EXPECT_EQ(span_ev.arg("bytes", -1), 1024);
  EXPECT_EQ(span_ev.arg("missing", -42), -42);
  EXPECT_STREQ(inst_ev.name, "marker");
  EXPECT_EQ(inst_ev.wall_ns, -1);
  EXPECT_EQ(inst_ev.arg("step", -1), 7);
}

TEST_F(ObsTraceTest, RingOverflowKeepsNewestAndCountsDrops) {
  Tracer::instance().set_thread_capacity(16);
  Tracer::instance().set_mode(TraceMode::kFull);
  for (int i = 0; i < 40; ++i) {
    instant("tick", Cat::kRuntime, {{"i", i}});
  }
  const auto events = Tracer::instance().snapshot();
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(Tracer::instance().events_recorded(), 40u);
  EXPECT_EQ(Tracer::instance().events_dropped(), 24u);
  // Survivors are the newest 24..39, oldest-first.
  EXPECT_EQ(events.front().arg("i", -1), 24);
  EXPECT_EQ(events.back().arg("i", -1), 39);
}

TEST_F(ObsTraceTest, SnapshotMergesThreadsSortedByTimestamp) {
  Tracer::instance().set_mode(TraceMode::kFull);
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([r] {
      bind_rank(r);
      for (int i = 0; i < 8; ++i) instant("t", Cat::kRuntime, {{"i", i}});
    });
  }
  for (auto& t : threads) t.join();
  const auto events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 32u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST_F(ObsTraceTest, ChromeJsonHasSchemaAndThreadNames) {
  Tracer::instance().set_mode(TraceMode::kFull);
  bind_rank(1);
  { Span span("fwd", Cat::kCompute, {{"mb", 0}}); }
  instant("fault", Cat::kRuntime);
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("\"ptdp-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // rank thread name
  EXPECT_NE(json.find("rank 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fwd\""), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ptdp_obs_trace_test.json").string();
  ASSERT_TRUE(Tracer::instance().write_chrome_json(path));
  EXPECT_GT(std::filesystem::file_size(path), 0u);
  std::filesystem::remove(path);
}

TEST_F(ObsTraceTest, ResetDropsEverything) {
  Tracer::instance().set_mode(TraceMode::kFull);
  instant("x", Cat::kRuntime);
  EXPECT_EQ(Tracer::instance().events_recorded(), 1u);
  Tracer::instance().reset();
  EXPECT_EQ(Tracer::instance().events_recorded(), 0u);
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
  // The thread re-registers transparently after a reset.
  instant("y", Cat::kRuntime);
  EXPECT_EQ(Tracer::instance().events_recorded(), 1u);
}

TEST_F(ObsMetricsTest, CountersGaugesHistograms) {
  auto& metrics = MetricsRegistry::instance();
  Counter& c = metrics.counter("test.count");
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4);
  EXPECT_EQ(&metrics.counter("test.count"), &c);  // stable reference

  metrics.gauge("test.gauge").set(2.5);
  EXPECT_DOUBLE_EQ(metrics.gauge("test.gauge").value(), 2.5);

  Histogram& h = metrics.histogram("test.ms");
  EXPECT_EQ(&metrics.histogram("test.ms"), &h);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_NEAR(h.mean(), (0.5 + 5.0 + 50.0 + 5000.0) / 4.0, 1e-9);
  // Rank 2 of 4 is the second sample: 5.0 opens the bucket [5.0, 5.125)
  // (5 = 1.25·2², width 2²/32), and the estimate stays inside it.
  EXPECT_GE(h.quantile(0.5), 5.0);
  EXPECT_LE(h.quantile(0.5), 5.0 + 4.0 / 32);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);  // clamped to the observed min
}

TEST_F(ObsMetricsTest, QuantilesNeverExceedTheObservedMax) {
  auto& metrics = MetricsRegistry::instance();
  // 10.19 shares the [10.0, 10.25) bucket with values up to 10.25; p99
  // must still report at most the max actually observed.
  Histogram& h = metrics.histogram("test.e2e_ms");
  for (int i = 0; i < 99; ++i) h.observe(1.0);
  h.observe(10.19);
  EXPECT_LE(h.quantile(0.99), h.max());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.19);
  // Beyond the top octave (the overflow bucket) a quantile interpolates up
  // to the max, not to infinity.
  Histogram& tail = metrics.histogram("test.tail_ms");
  tail.observe(0.5);
  tail.observe(5e7);
  tail.observe(7e7);
  EXPECT_LE(tail.quantile(0.99), 7e7);
  EXPECT_GT(tail.quantile(0.99), 5e7);
  EXPECT_DOUBLE_EQ(tail.quantile(1.0), 7e7);
}

TEST_F(ObsMetricsTest, QuantilesWithinOneBucketOfExactPercentiles) {
  // Distinct p50 and p99 for a spread of values (a power-of-two histogram
  // reported both as the same bucket bound), each within one log-linear
  // bucket (≤ 1/32 of the value) of the exact nearest-rank percentile.
  auto& metrics = MetricsRegistry::instance();
  Histogram& h = metrics.histogram("test.spread_ms");
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(3.0 + 2.0 * rng.next_uniform() + (i % 50 == 0 ? 40.0 : 0.0));
    h.observe(xs.back());
  }
  std::sort(xs.begin(), xs.end());
  for (const double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = xs[static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())) - 1)];
    EXPECT_NEAR(h.quantile(q), exact, exact / 32) << "q=" << q;
  }
  EXPECT_LT(h.quantile(0.5), 0.5 * h.quantile(0.99));
}

TEST_F(ObsMetricsTest, JsonIsWellFormedEnough) {
  auto& metrics = MetricsRegistry::instance();
  metrics.counter("a").add(1);
  metrics.gauge("g").set(1.0);
  metrics.histogram("h").observe(3.0);
  const std::string json = metrics.json();
  EXPECT_NE(json.find("\"ptdp-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":1"), std::string::npos);
  // Balanced braces/brackets (the serializer is hand-rolled).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ObsMetricsTest, WorldRunFillsPerRankVolumes) {
  Tracer::instance().set_mode(TraceMode::kMetricsOnly);
  auto& metrics = MetricsRegistry::instance();
  constexpr std::size_t kElems = 128;
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    metrics.name_comm_group(comm.id(), "world");
    std::vector<float> buf(kElems, static_cast<float>(comm.rank()));
    if (comm.rank() == 0) {
      comm.send(std::span<const float>(buf), 1, /*tag=*/9);
    } else {
      comm.recv(std::span<float>(buf), 0, /*tag=*/9);
    }
    comm.barrier();
  });
  const auto r0 = metrics.group_total("world", 0);
  const auto r1 = metrics.group_total("world", 1);
  EXPECT_EQ(r0.p2p_sends, 1u);
  EXPECT_EQ(r0.p2p_send_bytes, kElems * sizeof(float));
  EXPECT_EQ(r0.p2p_recvs, 0u);
  EXPECT_EQ(r1.p2p_recvs, 1u);
  EXPECT_EQ(r1.p2p_recv_bytes, kElems * sizeof(float));
  // One barrier call per rank; its token traffic lands in coll bytes.
  EXPECT_EQ(r0.collective_ops, 1u);
  EXPECT_EQ(r1.collective_ops, 1u);
  EXPECT_GT(r0.coll_send_bytes, 0u);

  const auto rows = metrics.comm_report();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rank, 0);
  EXPECT_EQ(rows[0].group, "world");
  EXPECT_EQ(rows[1].rank, 1);
}

TEST_F(ObsMetricsTest, DisabledModeRecordsNoVolumes) {
  dist::World world(2);
  world.run([&](dist::Comm& comm) {
    float x = 1.0f;
    if (comm.rank() == 0) {
      comm.send(std::span<const float>(&x, 1), 1);
    } else {
      comm.recv(std::span<float>(&x, 1), 0);
    }
  });
  EXPECT_TRUE(MetricsRegistry::instance().comm_report().empty());
}

}  // namespace
}  // namespace ptdp::obs
