#pragma once

// Pipeline schedules (§2.2): GPipe (all-forward-all-backward), 1F1B
// (PipeDream-Flush), and the paper's interleaved 1F1B with v model chunks
// per device. A schedule is materialized as a per-rank ordered list of
// forward/backward ops on (microbatch, chunk); the same op lists drive both
// the functional executor (real tensors over the thread world) and the
// performance simulator (virtual clock over the cluster model), so what we
// benchmark is exactly what we execute.

#include <cstdint>
#include <functional>
#include <vector>

namespace ptdp::pipeline {

enum class ScheduleType {
  kGPipe,        ///< all forwards, then all backwards (Fig. 3)
  kOneFOneB,     ///< PipeDream-Flush 1F1B (Fig. 4 top)
  kInterleaved,  ///< interleaved 1F1B with v chunks (Fig. 4 bottom)
};

const char* schedule_name(ScheduleType type);

struct Op {
  enum class Kind : std::uint8_t { kForward, kBackward };
  Kind kind;
  int microbatch;  ///< 0..m-1
  int chunk;       ///< model chunk on this device, 0..v-1

  bool operator==(const Op&) const = default;
};

/// Parameters of a pipeline schedule.
struct ScheduleParams {
  ScheduleType type = ScheduleType::kOneFOneB;
  int p = 1;  ///< pipeline-parallel size (devices)
  int m = 1;  ///< microbatches per batch per pipeline
  int v = 1;  ///< model chunks per device (>1 only for kInterleaved)
};

/// Virtual pipeline stage of (rank, chunk): chunk*p + rank. The model's
/// layers are striped over virtual stages in this order (§2.2.2's example:
/// device 1 gets layers {1,2} as chunk 0 and {9,10} as chunk 1).
inline int virtual_stage(int rank, int chunk, int p) { return chunk * p + rank; }
inline int num_virtual_stages(const ScheduleParams& sp) { return sp.p * sp.v; }

/// Build the ordered op list rank `rank` executes for one batch.
/// Interleaved schedules require m % p == 0 (paper constraint) and v >= 2.
std::vector<Op> build_rank_schedule(const ScheduleParams& sp, int rank);

/// Peak number of microbatches whose forward has run on this rank but whose
/// backward has not — i.e. how many activation stashes the rank needs
/// simultaneously (counted per chunk-op). GPipe peaks at m; 1F1B at <= p.
int max_in_flight(const std::vector<Op>& ops);

/// Structural validation used by property tests: every (microbatch, chunk)
/// appears exactly once as forward and once as backward, forward precedes
/// backward, and per-chunk forwards/backwards are in microbatch order.
bool is_valid_rank_schedule(const ScheduleParams& sp, const std::vector<Op>& ops);

/// An op's position in a replay: lanes[lane][index]; lane < 0 = none.
struct OpRef {
  int lane = -1;
  int index = -1;
};

/// One op of a replay lane, lasting `duration`. replay() fills start, end
/// (-1 while unscheduled) and pred: the op whose end bound the start (none
/// when the op started at 0).
struct ReplayOp {
  Op::Kind kind = Op::Kind::kForward;
  int microbatch = 0;
  int vs = 0;
  double duration = 0;
  double start = -1;
  double end = -1;
  OpRef pred{};
};

struct ReplayResult {
  bool complete = false;  ///< every op was scheduled
  OpRef last;             ///< the op that ends last
  double makespan = 0;
};

/// The one pipeline dependency replay (simulate_timeline,
/// sim::simulate_iteration and obs::analyze_events call it). Each lane runs
/// its ops in order; Fwd(mb, vs) also waits for Fwd(mb, vs-1), Bwd(mb, vs)
/// for Bwd(mb, vs+1), or for Fwd(mb, vs) at the last virtual stage. A
/// dependency absent from the input imposes no constraint; a cycle leaves
/// ops unscheduled and `complete` false. Needs 0 <= vs < num_virtual_stages.
ReplayResult replay(std::vector<std::vector<ReplayOp>>& lanes, int num_virtual_stages);

/// One lane per rank of `sp`'s schedule, each op lasting
/// duration(op, virtual stage).
std::vector<std::vector<ReplayOp>> schedule_lanes(
    const ScheduleParams& sp, const std::function<double(const Op&, int)>& duration);

/// One executed op with its simulated start/end time (virtual clock).
struct TimedOp {
  Op op;
  double start = 0;
  double end = 0;
};

/// Full logical timeline: per-rank TimedOps in execution order — the
/// replay of the schedule with constant per-chunk times. Drives the Fig. 3/4
/// diagram bench and schedule-visualization tooling.
std::vector<std::vector<TimedOp>> simulate_timeline(const ScheduleParams& sp,
                                                    double tf_chunk,
                                                    double tb_chunk);

/// Logical makespan of the schedule with per-*chunk* forward/backward times
/// tf_chunk and tb_chunk and zero communication cost, under replay()'s
/// dependency rules. This reproduces the paper's bubble-fraction formulas
/// exactly and is unit-tested against them.
double simulate_makespan(const ScheduleParams& sp, double tf_chunk, double tb_chunk);

/// Bubble fraction = (makespan − ideal) / makespan is sometimes used; the
/// paper uses t_pb / t_id. This returns t_pb / t_id with t_id = m·(tf+tb).
double bubble_fraction(const ScheduleParams& sp, double tf_chunk, double tb_chunk);

/// Analytic bubble fraction from §2.2: (p−1)/(v·m).
inline double analytic_bubble_fraction(const ScheduleParams& sp) {
  return static_cast<double>(sp.p - 1) / (static_cast<double>(sp.v) * sp.m);
}

}  // namespace ptdp::pipeline
