// ptdp_bench: runs one benchmark workload and prints its metrics.
//
//   ptdp_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out PATH]
//
// Workloads: train-pt, train-dp-bf16, serve-chat, serve-long (see
// ptdpbench/README.md). The last stdout line is the JSON result; the exit
// code is 0 only when every correctness check passed.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "ptdp/obs/trace.hpp"
#include "workloads.hpp"

namespace ptdpbench {

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    return value;
  }
  return "unknown";
}

bool has_amx() {
  const std::string flags = " " + cpuinfo_field("flags") + " ";
  return flags.find(" amx_tile ") != std::string::npos &&
         flags.find(" amx_bf16 ") != std::string::npos;
}

void print_host_stamp(const RunOptions& o) {
  const ThreadLayout layout = thread_layout(o.workload);
  std::printf("host: cpu \"%s\", cores %d, amx %s\n",
              cpuinfo_field("model name").c_str(), usable_cores(),
              has_amx() ? "yes" : "no");
  std::printf("build: compiler \"%s\", type %s\n", __VERSION__, PTDPB_BUILD_TYPE);
  std::printf("run: workload %s, seed %llu, seconds %g, trace %d, rank threads %d, "
              "intra-op threads %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, layout.rank_threads, layout.intra_op_threads);
}

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload train-pt|train-dp-bf16|serve-chat|"
               "serve-long --seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why, argv0);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage(argv[0], "bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage(argv[0], "bad --seconds");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0], "bad --trace");
      }
      o.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      o.trace_out = value;
    } else {
      usage(argv[0], "unknown flag");
    }
  }
  if (!is_training_workload(o.workload) && !is_serving_workload(o.workload)) {
    usage(argv[0], "unknown --workload");
  }
  if (!have_seed) usage(argv[0], "--seed is required");
  return o;
}

}  // namespace
}  // namespace ptdpbench

int main(int argc, char** argv) {
  using namespace ptdpbench;
  const RunOptions options = parse(argc, argv);
  print_host_stamp(options);
  std::fflush(stdout);
  try {
    Report report = is_training_workload(options.workload) ? run_training(options)
                                                            : run_serving(options);
    if (options.trace) {
      add_probe_metrics(report, options.seed);
      const std::uint64_t dropped = ptdp::obs::Tracer::instance().events_dropped();
      report.add("obs.events_dropped", static_cast<double>(dropped), "count");
      if (dropped > 0) report.problem("trace ring dropped events");
    }
    report.print();
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptdp_bench: %s\n", e.what());
    return 1;
  }
}
