#include "ptdp/pipeline/schedule.hpp"

#include <algorithm>

#include "ptdp/runtime/check.hpp"

namespace ptdp::pipeline {

const char* schedule_name(ScheduleType type) {
  switch (type) {
    case ScheduleType::kGPipe:
      return "gpipe";
    case ScheduleType::kOneFOneB:
      return "1f1b";
    case ScheduleType::kInterleaved:
      return "interleaved-1f1b";
  }
  return "?";
}

namespace {

void check_params(const ScheduleParams& sp) {
  PTDP_CHECK_GT(sp.p, 0);
  PTDP_CHECK_GT(sp.m, 0);
  PTDP_CHECK_GT(sp.v, 0);
  if (sp.type == ScheduleType::kInterleaved) {
    PTDP_CHECK_GE(sp.v, 2) << "interleaved schedule needs >= 2 model chunks";
    PTDP_CHECK_GE(sp.p, 2) << "interleaving needs a real pipeline (p >= 2)";
    PTDP_CHECK_EQ(sp.m % sp.p, 0)
        << "interleaved schedule requires microbatches (" << sp.m
        << ") to be a multiple of pipeline size (" << sp.p << ")";
  } else {
    PTDP_CHECK_EQ(sp.v, 1) << schedule_name(sp.type) << " uses a single model chunk";
  }
}

std::vector<Op> gpipe_schedule(const ScheduleParams& sp) {
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(2 * sp.m));
  for (int mb = 0; mb < sp.m; ++mb) ops.push_back({Op::Kind::kForward, mb, 0});
  for (int mb = 0; mb < sp.m; ++mb) ops.push_back({Op::Kind::kBackward, mb, 0});
  return ops;
}

std::vector<Op> one_f_one_b_schedule(const ScheduleParams& sp, int rank) {
  // PipeDream-Flush: warm up with (p - rank - 1) forwards, run 1F1B in
  // steady state, then drain the remaining backwards.
  const int warmup = std::min(sp.p - rank - 1, sp.m);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(2 * sp.m));
  int next_fwd = 0;
  int next_bwd = 0;
  for (int i = 0; i < warmup; ++i) ops.push_back({Op::Kind::kForward, next_fwd++, 0});
  for (int i = 0; i < sp.m - warmup; ++i) {
    ops.push_back({Op::Kind::kForward, next_fwd++, 0});
    ops.push_back({Op::Kind::kBackward, next_bwd++, 0});
  }
  while (next_bwd < sp.m) ops.push_back({Op::Kind::kBackward, next_bwd++, 0});
  return ops;
}

// Interleaved 1F1B, following megatron-core's
// forward_backward_pipelining_with_interleaving: virtual microbatch k in
// forward order maps to microbatch (k/(p*v))*p + k%p and chunk (k%(p*v))/p;
// backward order reverses the chunk index.
struct VirtualMap {
  int p, v;
  int microbatch(int k) const {
    const int group = k / (p * v);
    return group * p + (k % p);
  }
  int fwd_chunk(int k) const { return (k % (p * v)) / p; }
  int bwd_chunk(int k) const { return v - 1 - (k % (p * v)) / p; }
};

std::vector<Op> interleaved_schedule(const ScheduleParams& sp, int rank) {
  const int total = sp.m * sp.v;  // virtual microbatches
  const VirtualMap vm{sp.p, sp.v};

  int warmup;
  if (sp.m == sp.p) {
    warmup = total;  // degenerate: all-forward then all-backward
  } else {
    warmup = std::min(total, (sp.p - rank - 1) * 2 + (sp.v - 1) * sp.p);
  }

  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(2 * total));
  for (int k = 0; k < warmup; ++k) {
    ops.push_back({Op::Kind::kForward, vm.microbatch(k), vm.fwd_chunk(k)});
  }
  const int remaining = total - warmup;
  for (int i = 0; i < remaining; ++i) {
    ops.push_back({Op::Kind::kForward, vm.microbatch(warmup + i),
                   vm.fwd_chunk(warmup + i)});
    ops.push_back({Op::Kind::kBackward, vm.microbatch(i), vm.bwd_chunk(i)});
  }
  for (int k = remaining; k < total; ++k) {
    ops.push_back({Op::Kind::kBackward, vm.microbatch(k), vm.bwd_chunk(k)});
  }
  return ops;
}

}  // namespace

std::vector<Op> build_rank_schedule(const ScheduleParams& sp, int rank) {
  check_params(sp);
  PTDP_CHECK(0 <= rank && rank < sp.p) << "rank " << rank;
  switch (sp.type) {
    case ScheduleType::kGPipe:
      return gpipe_schedule(sp);
    case ScheduleType::kOneFOneB:
      return one_f_one_b_schedule(sp, rank);
    case ScheduleType::kInterleaved:
      return interleaved_schedule(sp, rank);
  }
  PTDP_CHECK(false) << "unreachable";
  return {};
}

int max_in_flight(const std::vector<Op>& ops) {
  int live = 0;
  int peak = 0;
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kForward) {
      ++live;
      peak = std::max(peak, live);
    } else {
      --live;
    }
  }
  return peak;
}

bool is_valid_rank_schedule(const ScheduleParams& sp, const std::vector<Op>& ops) {
  // Per chunk, the forwards and the backwards each run microbatches 0..m-1
  // in order, and a backward never overtakes its forward.
  std::vector<int> fwds(static_cast<std::size_t>(sp.v), 0), bwds = fwds;
  for (const Op& op : ops) {
    if (op.chunk < 0 || op.chunk >= sp.v) return false;
    const auto c = static_cast<std::size_t>(op.chunk);
    int& next = op.kind == Op::Kind::kForward ? fwds[c] : bwds[c];
    if (op.microbatch != next++ || bwds[c] > fwds[c]) return false;
  }
  return std::all_of(fwds.begin(), fwds.end(), [&](int n) { return n == sp.m; }) &&
         bwds == fwds;
}

ReplayResult replay(std::vector<std::vector<ReplayOp>>& lanes, int P) {
  int num_mb = 0;
  std::size_t remaining = 0;
  for (const auto& lane : lanes) {
    for (const ReplayOp& op : lane) num_mb = std::max(num_mb, op.microbatch + 1);
    remaining += lane.size();
  }

  // producer[key(kind, mb, vs)]: the op computing (kind, mb, vs), if any.
  auto key = [&](Op::Kind kind, int mb, int vs) {
    return (static_cast<std::size_t>(mb) * P + vs) * 2 + (kind == Op::Kind::kBackward);
  };
  std::vector<OpRef> producer(2 * static_cast<std::size_t>(num_mb) * P);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (std::size_t i = 0; i < lanes[l].size(); ++i) {
      ReplayOp& op = lanes[l][i];
      PTDP_CHECK(op.microbatch >= 0 && 0 <= op.vs && op.vs < P)
          << "replay op mb " << op.microbatch << " vs " << op.vs << " of " << P;
      op.start = op.end = -1.0;  // lanes may be replayed again
      op.pred = {};
      producer[key(op.kind, op.microbatch, op.vs)] = {static_cast<int>(l),
                                                      static_cast<int>(i)};
    }
  }

  // Worklist: advance every lane as far as its dependencies allow, until
  // all ops are placed or a sweep makes no progress (a cycle).
  ReplayResult result;
  std::vector<std::size_t> cursor(lanes.size(), 0);
  for (bool progressed = true; remaining > 0 && progressed;) {
    progressed = false;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      for (std::size_t& cur = cursor[l]; cur < lanes[l].size(); ++cur) {
        ReplayOp& op = lanes[l][cur];
        const int mb = op.microbatch;
        OpRef dep;
        if (op.kind == Op::Kind::kForward) {
          if (op.vs > 0) dep = producer[key(Op::Kind::kForward, mb, op.vs - 1)];
        } else if (op.vs == P - 1) {
          dep = producer[key(Op::Kind::kForward, mb, op.vs)];
        } else {
          dep = producer[key(Op::Kind::kBackward, mb, op.vs + 1)];
        }
        double ready = 0.0;
        if (dep.lane >= 0) {
          ready = lanes[static_cast<std::size_t>(dep.lane)]
                       [static_cast<std::size_t>(dep.index)].end;
          if (ready < 0.0) break;  // not yet placed
        }
        op.start = 0.0;
        if (cur > 0) {
          op.start = lanes[l][cur - 1].end;
          op.pred = {static_cast<int>(l), static_cast<int>(cur - 1)};
        }
        if (ready > op.start) {
          op.start = ready;
          op.pred = dep;
        }
        op.end = op.start + op.duration;
        if (op.end > result.makespan) {
          result.makespan = op.end;
          result.last = {static_cast<int>(l), static_cast<int>(cur)};
        }
        --remaining;
        progressed = true;
      }
    }
  }
  result.complete = remaining == 0;
  return result;
}

std::vector<std::vector<ReplayOp>> schedule_lanes(
    const ScheduleParams& sp, const std::function<double(const Op&, int)>& duration) {
  std::vector<std::vector<ReplayOp>> lanes;
  for (int r = 0; r < sp.p; ++r) {
    auto& lane = lanes.emplace_back();
    for (const Op& op : build_rank_schedule(sp, r)) {
      const int vs = virtual_stage(r, op.chunk, sp.p);
      lane.push_back({op.kind, op.microbatch, vs, duration(op, vs)});
    }
  }
  return lanes;
}

std::vector<std::vector<TimedOp>> simulate_timeline(const ScheduleParams& sp,
                                                    double tf_chunk,
                                                    double tb_chunk) {
  check_params(sp);
  auto lanes = schedule_lanes(sp, [&](const Op& op, int) {
    return op.kind == Op::Kind::kForward ? tf_chunk : tb_chunk;
  });
  PTDP_CHECK(replay(lanes, num_virtual_stages(sp)).complete)
      << "schedule deadlocked in simulation";
  std::vector<std::vector<TimedOp>> timeline(lanes.size());
  for (std::size_t r = 0; r < lanes.size(); ++r) {
    // vs = chunk·p + rank, so the chunk is vs / p.
    for (const ReplayOp& op : lanes[r]) {
      timeline[r].push_back({{op.kind, op.microbatch, op.vs / sp.p}, op.start, op.end});
    }
  }
  return timeline;
}

double simulate_makespan(const ScheduleParams& sp, double tf_chunk, double tb_chunk) {
  double makespan = 0.0;
  for (const auto& rank_ops : simulate_timeline(sp, tf_chunk, tb_chunk)) {
    for (const TimedOp& t : rank_ops) makespan = std::max(makespan, t.end);
  }
  return makespan;
}

double bubble_fraction(const ScheduleParams& sp, double tf_chunk, double tb_chunk) {
  const double makespan = simulate_makespan(sp, tf_chunk, tb_chunk);
  const double ideal = sp.m * sp.v * (tf_chunk + tb_chunk);
  return (makespan - ideal) / ideal;
}

}  // namespace ptdp::pipeline
