#include "ptdp/obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace ptdp::obs {

int Histogram::bucket_of(double x) {
  if (!(x >= std::ldexp(1.0, kMinExp))) return 0;  // also catches NaN
  if (x >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;
  int e = 0;
  const double frac = std::frexp(x, &e);  // x = frac · 2^e, frac in [0.5, 1)
  const int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
  return 1 + (e - 1 - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lower(int i) {
  return std::ldexp(1.0 + static_cast<double>((i - 1) % kSubBuckets) / kSubBuckets,
                    kMinExp + (i - 1) / kSubBuckets);
}

void Histogram::observe(double x) {
  buckets_[static_cast<std::size_t>(bucket_of(x))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loops: atomic<double> fetch_add/min/max are not universally available.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + x,
                                     std::memory_order_relaxed)) {
  }
  double seen_min = min_.load(std::memory_order_relaxed);
  while (x < seen_min &&
         !min_.compare_exchange_weak(seen_min, x, std::memory_order_relaxed)) {
  }
  double seen_max = max_.load(std::memory_order_relaxed);
  while (x > seen_max &&
         !max_.compare_exchange_weak(seen_max, x, std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  // The first bucket whose cumulative count reaches the rank holds the
  // nearest-rank sample; interpolate across it, then clamp, so the answer
  // stays in that bucket and never leaves the observed range.
  std::uint64_t before = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in = buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (in == 0 || static_cast<double>(before + in) < rank) {
      before += in;
      continue;
    }
    const double lo = i == 0 ? min() : bucket_lower(i);
    const double hi = i == kBuckets - 1 ? max() : bucket_lower(i + 1);
    const double t = (rank - static_cast<double>(before)) / static_cast<double>(in);
    return std::clamp(lo + t * (hi - lo), min(), max());
  }
  return max();
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

// Thread-local (comm_id -> slot) cache: the steady-state comm hot path is a
// hash lookup plus a plain increment on a slot only this thread writes.
// Keyed by (registry epoch, bound rank) so reset() and rank re-binding
// invalidate cleanly.
MetricsRegistry::CommSlot* MetricsRegistry::comm_slot(std::uint64_t comm_id) {
  struct Cache {
    std::uint64_t epoch = ~std::uint64_t{0};
    int rank = -2;
    std::unordered_map<std::uint64_t, std::shared_ptr<CommSlot>> slots;
  };
  thread_local Cache cache;
  const std::uint64_t epoch = comm_epoch_.load(std::memory_order_acquire);
  const int rank = bound_rank();
  if (cache.epoch != epoch || cache.rank != rank) {
    cache.slots.clear();
    cache.epoch = epoch;
    cache.rank = rank;
  }
  if (auto it = cache.slots.find(comm_id); it != cache.slots.end()) {
    return it->second.get();
  }
  std::shared_ptr<CommSlot> slot;
  {
    std::lock_guard lock(mu_);
    auto& s = comm_slots_[{comm_id, rank}];
    if (!s) s = std::make_shared<CommSlot>();
    slot = s;
  }
  CommSlot* raw = slot.get();
  cache.slots.emplace(comm_id, std::move(slot));
  return raw;
}

void MetricsRegistry::on_comm_send(std::uint64_t comm_id, std::size_t bytes,
                                   bool collective) {
  CommSlot* s = comm_slot(comm_id);
  if (collective) {
    s->stats.coll_send_bytes += bytes;
  } else {
    s->stats.p2p_sends += 1;
    s->stats.p2p_send_bytes += bytes;
  }
}

void MetricsRegistry::on_comm_recv(std::uint64_t comm_id, std::size_t bytes,
                                   bool collective) {
  CommSlot* s = comm_slot(comm_id);
  if (collective) {
    s->stats.coll_recv_bytes += bytes;
  } else {
    s->stats.p2p_recvs += 1;
    s->stats.p2p_recv_bytes += bytes;
  }
}

void MetricsRegistry::on_comm_collective(std::uint64_t comm_id) {
  comm_slot(comm_id)->stats.collective_ops += 1;
}

void MetricsRegistry::name_comm_group(std::uint64_t comm_id,
                                      const std::string& name) {
  std::lock_guard lock(mu_);
  comm_names_[comm_id] = name;
}

std::string MetricsRegistry::comm_group_name(std::uint64_t comm_id) const {
  std::lock_guard lock(mu_);
  const auto it = comm_names_.find(comm_id);
  return it != comm_names_.end() ? it->second : std::string();
}

std::vector<CommReportRow> MetricsRegistry::comm_report() const {
  std::lock_guard lock(mu_);
  std::vector<CommReportRow> rows;
  rows.reserve(comm_slots_.size());
  for (const auto& [key, slot] : comm_slots_) {
    CommReportRow row;
    row.comm_id = key.first;
    row.rank = key.second;
    const auto it = comm_names_.find(key.first);
    if (it != comm_names_.end()) {
      row.group = it->second;
    } else {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "comm-%016" PRIx64, key.first);
      row.group = hex;
    }
    row.stats = slot->stats;
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const CommReportRow& a, const CommReportRow& b) {
                     return a.rank != b.rank ? a.rank < b.rank
                                             : a.group < b.group;
                   });
  return rows;
}

CommGroupStats MetricsRegistry::group_total(const std::string& group,
                                            int rank) const {
  CommGroupStats total;
  for (const CommReportRow& row : comm_report()) {
    if (row.rank != rank || row.group != group) continue;
    total.p2p_sends += row.stats.p2p_sends;
    total.p2p_send_bytes += row.stats.p2p_send_bytes;
    total.p2p_recvs += row.stats.p2p_recvs;
    total.p2p_recv_bytes += row.stats.p2p_recv_bytes;
    total.collective_ops += row.stats.collective_ops;
    total.coll_send_bytes += row.stats.coll_send_bytes;
    total.coll_recv_bytes += row.stats.coll_recv_bytes;
  }
  return total;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  comm_epoch_.fetch_add(1, std::memory_order_acq_rel);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  comm_slots_.clear();
  comm_names_.clear();
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

std::string MetricsRegistry::json() const {
  std::string out = "{\"schema\":\"ptdp-metrics-v1\",\"counters\":{";
  char num[256];  // fits the widest multi-field row (comm volumes)
  {
    std::lock_guard lock(mu_);
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      append_escaped(out, name);
      std::snprintf(num, sizeof(num), "\":%" PRId64, c->value());
      out += num;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      append_escaped(out, name);
      std::snprintf(num, sizeof(num), "\":%.6g", g->value());
      out += num;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      append_escaped(out, name);
      std::snprintf(num, sizeof(num),
                    "\":{\"count\":%llu,\"mean\":%.6g,\"max\":%.6g,"
                    "\"p50\":%.6g,\"p99\":%.6g}",
                    static_cast<unsigned long long>(h->count()), h->mean(),
                    h->max(), h->quantile(0.5), h->quantile(0.99));
      out += num;
    }
    out += "}";
  }
  out += ",\"comm\":[";
  bool first = true;
  for (const CommReportRow& row : comm_report()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"rank\":";
    std::snprintf(num, sizeof(num), "%d", row.rank);
    out += num;
    out += ",\"group\":\"";
    append_escaped(out, row.group);
    std::snprintf(num, sizeof(num),
                  "\",\"p2p_sends\":%llu,\"p2p_send_bytes\":%llu,"
                  "\"p2p_recvs\":%llu,\"p2p_recv_bytes\":%llu",
                  static_cast<unsigned long long>(row.stats.p2p_sends),
                  static_cast<unsigned long long>(row.stats.p2p_send_bytes),
                  static_cast<unsigned long long>(row.stats.p2p_recvs),
                  static_cast<unsigned long long>(row.stats.p2p_recv_bytes));
    out += num;
    std::snprintf(num, sizeof(num),
                  ",\"collective_ops\":%llu,\"coll_send_bytes\":%llu,"
                  "\"coll_recv_bytes\":%llu}",
                  static_cast<unsigned long long>(row.stats.collective_ops),
                  static_cast<unsigned long long>(row.stats.coll_send_bytes),
                  static_cast<unsigned long long>(row.stats.coll_recv_bytes));
    out += num;
  }
  out += "]}";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string j = json();
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ptdp::obs
