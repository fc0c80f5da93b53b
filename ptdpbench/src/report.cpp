#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace ptdpbench {

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    problem("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, value, unit});
}

void Report::problem(const std::string& what) { problems.push_back(what); }

void Report::warn(const std::string& what) { warnings.push_back(what); }

void Report::print() const {
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& w : warnings) std::printf("WARNING: %s\n", w.c_str());
  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());
  std::printf("attempted %lld, failed %lld, correct %s\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              correct() ? "yes" : "no");
}

namespace {

// Shortest decimal form that reads back to the same double: every digit
// the measurement has, and nothing invented.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: the smallest sample with at least q·n samples at or below.
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

double max_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
}

double min_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
}

double tail_quantile(std::size_t n) {
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::string describe_latency(const std::vector<double>& samples_ms) {
  const double q = tail_quantile(samples_ms.size());
  char tail[64] = "";
  if (q > 0.5) {
    std::snprintf(tail, sizeof(tail), ", p%g %.3f ms", q * 100.0, percentile(samples_ms, q));
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50 %.3f ms%s, max %.3f ms (n=%zu)",
                percentile(samples_ms, 0.5), tail, max_of(samples_ms), samples_ms.size());
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // Linux: KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ptdpbench
