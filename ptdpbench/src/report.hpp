#pragma once

// What one benchmark run reports: named metrics with units, operation
// accounting (attempted / failed), correctness problems and warnings, plus
// the exact-percentile helpers every latency figure is computed with.
// Percentiles always come from the raw samples, never from obs::Histogram
// buckets (whose bound-valued quantiles can exceed the observed max).

#include <cstdint>
#include <string>
#include <vector>

namespace ptdpbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;  ///< operations (steps or requests) run
  std::int64_t failed = 0;     ///< of those, how many gave a wrong result
  std::vector<std::string> problems;  ///< correctness failures, one line each
  std::vector<std::string> warnings;  ///< e.g. breakdown coverage below 0.9

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure (makes the run incorrect).
  void problem(const std::string& what);
  void warn(const std::string& what);
  bool correct() const { return problems.empty() && failed == 0; }

  /// Human-readable metric table on stdout.
  void print() const;
  /// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

/// Exact nearest-rank percentile (q in [0, 1]) of raw samples; 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);
double max_of(const std::vector<double>& samples);
double min_of(const std::vector<double>& samples);

/// The highest of p99, p95, p90, p75, p50 that leaves at least ten samples
/// beyond it for `n` samples (0.5 when none does).
double tail_quantile(std::size_t n);

/// "p50 12.3 ms, p90 45.6 ms (n=192)" for a sample set.
std::string describe_latency(const std::vector<double>& samples_ms);

/// Peak resident set of this process so far, MB of 10^6 bytes (getrusage).
double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

}  // namespace ptdpbench
