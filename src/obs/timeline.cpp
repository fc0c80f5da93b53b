#include "ptdp/obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <tuple>

#include "ptdp/pipeline/schedule.hpp"

namespace ptdp::obs {

namespace {

struct OpSample {
  int rank = -1;       ///< world rank (trace tid)
  int stage = 0;       ///< pipeline rank
  bool backward = false;
  int mb = 0;
  int vs = 0;
  std::int64_t ts_ns = 0;
  double dur_ns = 0;
};

struct GroupKey {
  std::int64_t pipe;
  std::int64_t batch;
  bool operator<(const GroupKey& o) const {
    return pipe != o.pipe ? pipe < o.pipe : batch < o.batch;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Replays one batch's traced ops under the pipeline dependency rules and
// fills makespan / ideal / bubble and its split / critical path.
BatchTimeline replay_batch(const GroupKey& key, std::vector<OpSample> ops) {
  BatchTimeline out;
  out.pipe = key.pipe;
  out.batch = key.batch;

  // One lane per world rank, in traced start order.
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpSample& a, const OpSample& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  std::map<int, std::vector<OpSample>> by_rank;
  int max_vs = 0, max_mb = 0;
  for (const OpSample& op : ops) {
    by_rank[op.rank].push_back(op);
    max_vs = std::max(max_vs, op.vs);
    max_mb = std::max(max_mb, op.mb);
  }
  std::vector<std::vector<OpSample>> lanes;
  for (auto& [rank, lane] : by_rank) lanes.push_back(std::move(lane));
  out.p = static_cast<int>(lanes.size());
  out.m = max_mb + 1;
  out.num_virtual_stages = max_vs + 1;

  // The lanes replayed with each op lasting duration(op); returns the
  // bubble (makespan − t_id) / t_id, t_id = mean lane busy time.
  std::vector<std::vector<pipeline::ReplayOp>> replayed;
  pipeline::ReplayResult raw;
  const auto bubble_of = [&](const std::function<double(const OpSample&)>& duration) {
    replayed.assign(lanes.size(), {});
    double busy = 0;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      for (const OpSample& op : lanes[l]) {
        const double d = duration(op);
        busy += d;
        replayed[l].push_back({op.backward ? pipeline::Op::Kind::kBackward
                                           : pipeline::Op::Kind::kForward,
                               op.mb, op.vs, d});
      }
    }
    raw = pipeline::replay(replayed, out.num_virtual_stages);
    out.ideal_ns = busy / static_cast<double>(lanes.size());
    return out.ideal_ns > 0 ? (raw.makespan - out.ideal_ns) / out.ideal_ns : 0.0;
  };

  // The bubble's split: every op at the batch's fwd/bwd median gives the
  // closed form; per-(rank, virtual stage, kind) medians add stage
  // imbalance; the raw durations add per-op jitter.
  std::vector<double> by_kind[2];
  std::map<std::tuple<int, int, bool>, std::vector<double>> by_chunk;
  for (const OpSample& op : ops) {
    by_kind[op.backward].push_back(op.dur_ns);
    by_chunk[{op.rank, op.vs, op.backward}].push_back(op.dur_ns);
  }
  const double kind_median[2] = {median(by_kind[0]), median(by_kind[1])};
  out.closed_form_bubble =
      bubble_of([&](const OpSample& op) { return kind_median[op.backward]; });
  const double per_chunk_bubble = bubble_of([&](const OpSample& op) {
    return median(by_chunk.at({op.rank, op.vs, op.backward}));
  });
  out.imbalance_bubble = per_chunk_bubble - out.closed_form_bubble;

  // The raw replay last, so `replayed`, `raw` and ideal_ns describe it. A
  // dependency cycle (malformed trace) leaves ops unscheduled; report what
  // was schedulable rather than failing.
  out.bubble_fraction = bubble_of([](const OpSample& op) { return op.dur_ns; });
  out.jitter_bubble = out.bubble_fraction - per_chunk_bubble;
  out.replay_complete = raw.complete;
  out.makespan_ns = raw.makespan;

  // Critical path: walk the binding constraints back from the last op.
  for (pipeline::OpRef i = raw.last; i.lane >= 0;) {
    const auto l = static_cast<std::size_t>(i.lane);
    const auto k = static_cast<std::size_t>(i.index);
    const OpSample& op = lanes[l][k];
    i = replayed[l][k].pred;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "stage%d:%s(mb=%d,vs=%d)", op.stage,
                  op.backward ? "bwd" : "fwd", op.mb, op.vs);
    out.critical_path.push_back(buf);
    out.critical_path_ns += op.dur_ns;
  }
  std::reverse(out.critical_path.begin(), out.critical_path.end());
  return out;
}

}  // namespace

TimelineReport analyze_events(const std::vector<TraceEvent>& events,
                              const TimelineOptions& options) {
  TimelineReport report;
  std::map<GroupKey, std::vector<OpSample>> groups;
  std::map<int, RankTimeline> ranks;
  std::int64_t wall_min = 0, wall_max = 0;
  bool have_window = false;

  for (const TraceEvent& ev : events) {
    if (ev.name == nullptr || ev.wall_ns < 0) continue;
    const bool is_fwd = std::strcmp(ev.name, "fwd") == 0;
    const bool is_bwd = std::strcmp(ev.name, "bwd") == 0;
    const bool is_recv_wait = std::strcmp(ev.name, "recv_wait") == 0;
    const bool is_send = std::strcmp(ev.name, "p2p_send") == 0;
    if (!is_fwd && !is_bwd && !is_recv_wait && !is_send) continue;
    RankTimeline& rt = ranks[ev.rank];
    rt.rank = ev.rank;
    if (is_fwd || is_bwd) {
      rt.ops += 1;
      rt.wall_busy_ns += static_cast<double>(ev.wall_ns);
      const double dur = static_cast<double>(ev.cpu_ns >= 0 ? ev.cpu_ns : ev.wall_ns);
      rt.busy_ns += dur;
      if (!have_window || ev.ts_ns < wall_min) wall_min = ev.ts_ns;
      if (!have_window || ev.ts_ns + ev.wall_ns > wall_max) {
        wall_max = ev.ts_ns + ev.wall_ns;
      }
      have_window = true;

      OpSample op;
      op.rank = ev.rank;
      op.stage = static_cast<int>(ev.arg("stage", ev.rank));
      op.backward = is_bwd;
      op.mb = static_cast<int>(ev.arg("mb", 0));
      op.vs = static_cast<int>(ev.arg("vs", op.stage));
      op.ts_ns = ev.ts_ns;
      op.dur_ns = dur;
      if (op.mb < 0 || op.vs < 0) continue;  // not a schedule op
      groups[{ev.arg("pipe", 0), ev.arg("batch", 0)}].push_back(op);
    } else if (is_recv_wait) {
      rt.recv_wait_ns += static_cast<double>(ev.wall_ns);
    } else {
      rt.p2p_messages += 1;
      rt.p2p_bytes_sent += static_cast<std::uint64_t>(ev.arg("bytes", 0));
    }
  }

  for (auto& [key, ops] : groups) {
    report.batches.push_back(replay_batch(key, std::move(ops)));
  }
  for (auto& [rank, rt] : ranks) report.ranks.push_back(rt);

  if (!report.batches.empty()) {
    std::vector<double> bubbles;
    for (const BatchTimeline& b : report.batches) bubbles.push_back(b.bubble_fraction);
    report.bubble_fraction = median(bubbles);

    // Analytic (p−1)/(v·m) of the first batch, v = virtual stages / ranks.
    const BatchTimeline& b0 = report.batches.front();
    if (b0.p > 0 && b0.m > 0) {
      report.analytic_bubble_fraction = pipeline::analytic_bubble_fraction(
          {pipeline::ScheduleType::kOneFOneB, b0.p, b0.m,
           std::max(1, b0.num_virtual_stages / b0.p)});
    }
  }

  if (have_window && !report.ranks.empty()) {
    report.wall_window_ns = static_cast<double>(wall_max - wall_min);
    double busy_sum = 0;
    for (const RankTimeline& rt : report.ranks) busy_sum += rt.wall_busy_ns;
    const double mean_busy = busy_sum / static_cast<double>(report.ranks.size());
    report.wall_bubble_fraction =
        mean_busy > 0 ? (report.wall_window_ns - mean_busy) / mean_busy : 0.0;
  }

  // Stragglers: busy time beyond straggler_factor × median.
  if (report.ranks.size() >= 2) {
    std::vector<double> busy;
    for (const RankTimeline& rt : report.ranks) busy.push_back(rt.busy_ns);
    const double busy_median = median(busy);
    for (const RankTimeline& rt : report.ranks) {
      if (busy_median > 0 && rt.busy_ns > options.straggler_factor * busy_median) {
        report.stragglers.push_back(rt.rank);
      }
    }
  }
  return report;
}

TimelineReport analyze(const Tracer& tracer, const TimelineOptions& options) {
  return analyze_events(tracer.snapshot(), options);
}

std::string format_report(const TimelineReport& report) {
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line),
                "pipeline timeline: %zu batch(es), measured bubble %.4f "
                "(analytic (p-1)/(v*m) = %.4f), wall-clock bubble %.4f\n",
                report.batches.size(), report.bubble_fraction,
                report.analytic_bubble_fraction, report.wall_bubble_fraction);
  out += line;
  for (const BatchTimeline& b : report.batches) {
    std::snprintf(line, sizeof(line),
                  "  batch %lld (pipe %lld): p=%d m=%d vs=%d makespan %.3f ms "
                  "ideal %.3f ms bubble %.4f = closed-form %.4f + imbalance "
                  "%.4f + jitter %.4f, critical-path %.3f ms (%zu ops)%s\n",
                  static_cast<long long>(b.batch),
                  static_cast<long long>(b.pipe), b.p, b.m,
                  b.num_virtual_stages, b.makespan_ns / 1e6, b.ideal_ns / 1e6,
                  b.bubble_fraction, b.closed_form_bubble, b.imbalance_bubble,
                  b.jitter_bubble, b.critical_path_ns / 1e6,
                  b.critical_path.size(),
                  b.replay_complete ? "" : " [incomplete: dependency cycle]");
    out += line;
  }
  for (const RankTimeline& rt : report.ranks) {
    std::snprintf(line, sizeof(line),
                  "  rank %2d: %4d ops busy %.3f ms (wall %.3f ms) recv-wait "
                  "%.3f ms p2p %llu msg / %llu bytes\n",
                  rt.rank, rt.ops, rt.busy_ns / 1e6, rt.wall_busy_ns / 1e6,
                  rt.recv_wait_ns / 1e6,
                  static_cast<unsigned long long>(rt.p2p_messages),
                  static_cast<unsigned long long>(rt.p2p_bytes_sent));
    out += line;
  }
  if (!report.stragglers.empty()) {
    out += "  stragglers:";
    for (int r : report.stragglers) {
      std::snprintf(line, sizeof(line), " %d", r);
      out += line;
    }
    out += "\n";
  }
  return out;
}

}  // namespace ptdp::obs
