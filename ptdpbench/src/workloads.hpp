#pragma once

// Entry points of the four workloads and the probes the traced run adds.
//
// Every workload runs in two modes:
//  - untraced (trace = false): the end-to-end metrics, tracing off;
//  - traced (trace = true): an untraced pass and a traced pass over the same
//    work (their throughput ratio is the tracing overhead), the per-layer
//    metrics from the traced pass, and the kernel / decode / host probes.
// Both report every metric of their mode on every workload; a layer a
// workload does not exercise reports 0.

#include <cstdint>
#include <string>

#include "ptdp/model/config.hpp"
#include "report.hpp"

namespace ptdpbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome JSON path for the traced pass
};

/// What a run needs to say about its host and thread layout.
struct ThreadLayout {
  int rank_threads = 1;
  int intra_op_threads = 1;
};

bool is_training_workload(const std::string& name);
bool is_serving_workload(const std::string& name);
ThreadLayout thread_layout(const std::string& name);

Report run_training(const RunOptions& options);
Report run_serving(const RunOptions& options);

/// Every per-layer metric of the other workload family, reported as 0 by a
/// traced run so each run carries the full per-layer set.
void add_zero_training_layers(Report& report);
void add_zero_serving_layers(Report& report);

/// The serving workloads' GPT (4 layers, h = 256, vocab 2048) with a
/// `window`-token context; the decode probe builds the same model.
ptdp::model::GptConfig serving_model(std::int64_t window, std::uint64_t seed);
/// Intra-op threads of the serving workloads: min(4, usable cores).
int serving_threads();

/// Host, kernel and decode probes (traced runs only): host.*, tensor.* and
/// model.* metrics.
void add_probe_metrics(Report& report, std::uint64_t seed);

/// Number of cores this process may use (sched affinity), at least 1.
int usable_cores();

}  // namespace ptdpbench
