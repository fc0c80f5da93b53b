#pragma once

// ptdp::obs metrics registry (DESIGN.md §11): counters, gauges, and
// histograms keyed by name, plus a dedicated per-(rank, communicator) comm
// volume table that dist::Comm feeds from its send/recv hot path.
//
// Hot-path contract:
//  - Named metrics return stable references; callers look a metric up once
//    and then add/observe through atomics (no lock after creation).
//  - The comm volume table is written only by the owning rank thread (each
//    (comm_id, rank) slot belongs to one rank), with a thread-local slot
//    cache so the steady state is a plain field increment — no atomics, no
//    lock. Readers (reports) run after World::run has joined its threads.
//  - Everything is gated on obs::metrics_on(): a disabled registry costs
//    one relaxed atomic load per site.

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ptdp/obs/trace.hpp"

namespace ptdp::obs {

class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear histogram (HdrHistogram-style): each octave from 2^kMinExp
/// to 2^kMaxExp splits into 32 equal buckets, so a bucket is at most 1/32
/// (3.125%) of its lower edge wide; values outside land in an underflow or
/// an overflow bucket. Tracks count, sum, min and max.
class Histogram {
 public:
  static constexpr int kSubBuckets = 32;
  static constexpr int kMinExp = -20;  ///< ~1e-6
  static constexpr int kMaxExp = 24;   ///< ~1.7e7

  void observe(double x);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Observed extremes; 0 before the first observation.
  double min() const {
    return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  }
  double max() const {
    return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  }
  double mean() const {
    const auto n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }
  /// Quantile q in [0, 1]: rank q·count() located in its bucket, linearly
  /// interpolated across the bucket and clamped to [min(), max()] — within
  /// one bucket width (≤ 3.125%) of the exact nearest-rank percentile.
  double quantile(double q) const;

 private:
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets + 2;
  static int bucket_of(double x);
  static double bucket_lower(int i);  ///< for i in [1, kBuckets - 1]

  std::vector<std::atomic<std::uint64_t>> buckets_ =
      std::vector<std::atomic<std::uint64_t>>(kBuckets);
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// ---- per-(rank, group) communication volumes --------------------------------------

struct CommGroupStats {
  std::uint64_t p2p_sends = 0;
  std::uint64_t p2p_send_bytes = 0;
  std::uint64_t p2p_recvs = 0;
  std::uint64_t p2p_recv_bytes = 0;
  std::uint64_t collective_ops = 0;  ///< collective *calls* (not ring steps)
  std::uint64_t coll_send_bytes = 0; ///< transport bytes under collectives
  std::uint64_t coll_recv_bytes = 0;
};

/// One row of the per-rank comm report.
struct CommReportRow {
  int rank = -1;
  std::uint64_t comm_id = 0;
  std::string group;  ///< registered name, or hex comm id when unnamed
  CommGroupStats stats;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create; returned references stay valid until reset().
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Comm volume hot path (called from dist::Comm; no-ops when metrics are
  // off — callers gate on obs::metrics_on() before computing arguments).
  void on_comm_send(std::uint64_t comm_id, std::size_t bytes, bool collective);
  void on_comm_recv(std::uint64_t comm_id, std::size_t bytes, bool collective);
  void on_comm_collective(std::uint64_t comm_id);

  /// Names a communicator id for reports ("tensor", "pipeline", ...).
  /// Idempotent; every member of a group registers the same mapping.
  void name_comm_group(std::uint64_t comm_id, const std::string& name);
  /// Registered name for a comm id ("" when unnamed).
  std::string comm_group_name(std::uint64_t comm_id) const;

  /// Per-(rank, group) volume rows, rank-major. Aggregate of everything
  /// recorded since the last reset(); call quiesced.
  std::vector<CommReportRow> comm_report() const;
  /// Sum of `stats` over all rows matching the group name, one per rank.
  CommGroupStats group_total(const std::string& group, int rank) const;

  /// Drops every metric, comm slot, and name registration.
  void reset();

  /// JSON dump: {"schema":"ptdp-metrics-v1","counters":{...},"gauges":{...},
  /// "histograms":{...},"comm":[...]}.
  std::string json() const;
  bool write_json(const std::string& path) const;

 private:
  struct CommSlot {
    CommGroupStats stats;  ///< plain fields: single-writer (the rank thread)
  };

  CommSlot* comm_slot(std::uint64_t comm_id);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::pair<std::uint64_t, int>, std::shared_ptr<CommSlot>> comm_slots_;
  std::map<std::uint64_t, std::string> comm_names_;
  std::atomic<std::uint64_t> comm_epoch_{0};  ///< bumped by reset()
};

}  // namespace ptdp::obs
