#pragma once

// Timeline analyzer (DESIGN.md §11): reconstructs the per-stage pipeline
// schedule from a trace and measures what the paper only states
// analytically — bubble fraction vs (p−1)/(v·m), the critical path through
// the schedule, per-rank communication volume (§4.1 cross-check), and
// straggler ranks.
//
// Two views of the same trace:
//  - Wall view: raw steady-clock window vs per-rank busy time. Faithful on
//    hardware where each rank owns a device; on an oversubscribed CPU test
//    host it mostly measures the OS scheduler.
//  - Replay view (the headline number): take each op's *measured* duration
//    (thread-CPU when traced, so descheduling doesn't pollute it), then
//    re-schedule the traced ops with pipeline::replay, the simulators'
//    dependency replay, each rank serial in traced order: the
//    MegaScale-style "reconstruct the timeline from per-rank events" step.
//    Two more replays split the bubble (see BatchTimeline).
//
// Input contract: compute spans named "fwd"/"bwd" (Cat::kCompute) carrying
// args {mb, vs, stage, pipe, batch} as emitted by pipeline::PipelineExecutor;
// p2p spans "p2p_send" with {bytes} and "recv_wait". Multiple batches and
// multiple pipeline groups (d·t > 1) are segmented by (pipe, batch).

#include <cstdint>
#include <string>
#include <vector>

#include "ptdp/obs/trace.hpp"

namespace ptdp::obs {

struct TimelineOptions {
  /// A rank is a straggler when its busy time exceeds the across-rank
  /// median by this factor.
  double straggler_factor = 1.2;
};

/// Per-(world rank) aggregate over the analyzed window.
struct RankTimeline {
  int rank = -1;
  int ops = 0;                ///< fwd + bwd compute ops
  double busy_ns = 0;         ///< Σ compute durations (thread-CPU when traced)
  double wall_busy_ns = 0;    ///< Σ compute wall durations
  double recv_wait_ns = 0;    ///< Σ "recv_wait" wall durations
  std::uint64_t p2p_bytes_sent = 0;  ///< Σ "p2p_send" bytes args
  std::uint64_t p2p_messages = 0;
};

/// One replayed batch of one pipeline group.
struct BatchTimeline {
  std::int64_t pipe = 0;     ///< pipeline-group id (low bits of comm id)
  std::int64_t batch = 0;    ///< executor batch sequence number
  int p = 0;                 ///< pipeline ranks observed
  int m = 0;                 ///< microbatches observed
  int num_virtual_stages = 0;
  double makespan_ns = 0;    ///< replayed makespan
  double ideal_ns = 0;       ///< mean per-rank busy time (t_id)
  double bubble_fraction = 0;  ///< (makespan − ideal) / ideal
  /// The bubble's split, each part one more replay of the same lanes:
  /// bubble_fraction = closed_form + imbalance + jitter.
  double closed_form_bubble = 0;  ///< every op at the batch's fwd/bwd median
  double imbalance_bubble = 0;  ///< per-(rank, vs, kind) medians − closed form
  double jitter_bubble = 0;     ///< raw − per-(rank, vs, kind) medians
  bool replay_complete = true;  ///< false: a dependency cycle left ops out
  double critical_path_ns = 0;
  std::vector<std::string> critical_path;  ///< "stage2:bwd(mb=3,vs=1)" chain
};

struct TimelineReport {
  std::vector<BatchTimeline> batches;
  /// Median of the per-batch replayed bubble fractions (the headline).
  double bubble_fraction = 0;
  /// Analytic (p−1)/(v·m) from the observed p, m, v — for side-by-side.
  double analytic_bubble_fraction = 0;
  /// Raw wall-clock view over the whole window (all batches).
  double wall_window_ns = 0;
  double wall_bubble_fraction = 0;
  std::vector<RankTimeline> ranks;
  std::vector<int> stragglers;  ///< world ranks over the straggler factor
};

/// Analyzes compute/p2p events (see input contract above). Events from
/// forward-only/eval traffic are ignored. Returns a default report when the
/// trace holds no pipeline compute spans.
TimelineReport analyze_events(const std::vector<TraceEvent>& events,
                              const TimelineOptions& options = {});

/// Convenience: snapshot + analyze.
TimelineReport analyze(const Tracer& tracer, const TimelineOptions& options = {});

/// Human-readable multi-line report (what train_main prints).
std::string format_report(const TimelineReport& report);

}  // namespace ptdp::obs
