#include "ptdp/dist/comm.hpp"

#include <algorithm>
#include <cstring>

#include "ptdp/dist/tags.hpp"
#include "ptdp/obs/trace.hpp"

namespace ptdp::dist {

namespace {

// Collective tags come from the shared tag-space map (ptdp/dist/tags.hpp);
// the aliases keep the algorithm bodies readable.
using tags::kAllGatherTag;
using tags::kAllGatherVarTag;
using tags::kAllReduceTag;
using tags::kBarrierTag;
using tags::kBroadcastTag;
using tags::kReduceScatterTag;

template <typename F>
void apply_reduce(ReduceOp op, std::span<F> acc, std::span<const F> other) {
  PTDP_CHECK_EQ(acc.size(), other.size());
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = std::max(acc[i], other[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = std::min(acc[i], other[i]);
      break;
  }
}

// Uneven chunking: chunk c covers [offset(c), offset(c+1)) with the first
// (len % n) chunks one element larger.
struct Chunking {
  std::size_t len;
  std::size_t n;
  std::size_t offset(std::size_t c) const {
    const std::size_t base = len / n;
    const std::size_t rem = len % n;
    return c * base + std::min(c, rem);
  }
  std::size_t size(std::size_t c) const { return offset(c + 1) - offset(c); }
};

}  // namespace

namespace {
// One metrics tick per collective *call* (ring/tree steps are accounted as
// bytes by the isend/irecv hooks).
inline void note_collective(std::uint64_t comm_id) {
  if (obs::metrics_on()) {
    obs::MetricsRegistry::instance().on_comm_collective(comm_id);
  }
}
}  // namespace

void Comm::barrier() const {
  const int n = size();
  if (n == 1) return;
  fault_hook(FaultSite::kCollective);
  note_collective(comm_id_);
  obs::Span span("barrier", obs::Cat::kCollective,
                 {{"ranks", n}, {"comm", static_cast<std::int64_t>(comm_id_)}});
  const std::uint8_t token = 0;
  std::uint8_t sink = 0;
  for (int dist = 1; dist < n; dist <<= 1) {
    const int to = (rank_ + dist) % n;
    const int from = (rank_ - dist % n + n) % n;
    send(std::span<const std::uint8_t>(&token, 1), to, kBarrierTag);
    recv(std::span<std::uint8_t>(&sink, 1), from, kBarrierTag);
  }
}

void Comm::broadcast_bytes(std::span<std::uint8_t> data, int root) const {
  const int n = size();
  PTDP_CHECK_GE(root, 0);
  PTDP_CHECK_LT(root, n);
  if (n == 1) return;
  fault_hook(FaultSite::kCollective);
  note_collective(comm_id_);
  obs::Span span("broadcast", obs::Cat::kCollective,
                 {{"bytes", static_cast<std::int64_t>(data.size())}, {"ranks", n}});
  // Binomial tree rooted at `root`, expressed in root-relative ranks.
  const int relative = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (relative & mask) {
      const int src = ((relative - mask) + root) % n;
      recv(data, src, kBroadcastTag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const int dst = (relative + mask + root) % n;
      send(std::span<const std::uint8_t>(data.data(), data.size()), dst, kBroadcastTag);
    }
    mask >>= 1;
  }
}

Comm::Range Comm::owned_range(std::size_t len) const {
  const int n = size();
  const Chunking ck{len, static_cast<std::size_t>(n)};
  const std::size_t c = static_cast<std::size_t>((rank_ + 1) % n);
  return {ck.offset(c), ck.size(c)};
}

// Phase 1: ring reduce-scatter. At step s rank r sends chunk r-s and folds
// the incoming chunk r-s-1 into its own copy, so chunk c's sum starts at
// rank c and after n-1 steps rank r holds the full reduction of chunk
// (r+1) mod n.
template <typename F>
void Comm::ring_reduce_scatter(std::span<F> data, ReduceOp op,
                               std::uint64_t tag) const {
  const int n = size();
  const int next = (rank_ + 1) % n;
  const int prev = (rank_ - 1 + n) % n;
  const Chunking ck{data.size(), static_cast<std::size_t>(n)};
  std::vector<F> scratch(ck.size(0));  // max chunk size is chunk 0's
  for (int step = 0; step < n - 1; ++step) {
    const std::size_t send_c = static_cast<std::size_t>((rank_ - step + n) % n);
    const std::size_t recv_c = static_cast<std::size_t>((rank_ - step - 1 + 2 * n) % n);
    send(std::span<const F>(data.data() + ck.offset(send_c), ck.size(send_c)), next, tag);
    std::span<F> incoming(scratch.data(), ck.size(recv_c));
    recv(incoming, prev, tag);
    apply_reduce(op, std::span<F>(data.data() + ck.offset(recv_c), ck.size(recv_c)),
                 std::span<const F>(incoming.data(), incoming.size()));
  }
}

// Phase 2: ring all-gather of the owned chunks, in elements of `elem_size`
// bytes.
void Comm::ring_all_gather(std::span<std::uint8_t> data, std::size_t elem_size,
                           std::uint64_t tag) const {
  const int n = size();
  const int next = (rank_ + 1) % n;
  const int prev = (rank_ - 1 + n) % n;
  PTDP_CHECK_EQ(data.size() % elem_size, 0u);
  const Chunking ck{data.size() / elem_size, static_cast<std::size_t>(n)};
  auto chunk = [&](std::size_t c) {
    return data.subspan(ck.offset(c) * elem_size, ck.size(c) * elem_size);
  };
  for (int step = 0; step < n - 1; ++step) {
    const std::size_t send_c = static_cast<std::size_t>((rank_ + 1 - step + 2 * n) % n);
    const std::size_t recv_c = static_cast<std::size_t>((rank_ - step + 2 * n) % n);
    const std::span<std::uint8_t> out = chunk(send_c);
    send(std::span<const std::uint8_t>(out.data(), out.size()), next, tag);
    recv(chunk(recv_c), prev, tag);
  }
}

template <typename F>
void Comm::all_reduce_impl(std::span<F> data, ReduceOp op) const {
  const int n = size();
  if (n == 1 || data.empty()) return;
  fault_hook(FaultSite::kCollective);
  note_collective(comm_id_);
  obs::Span span("all_reduce", obs::Cat::kCollective,
                 {{"bytes", static_cast<std::int64_t>(data.size_bytes())}, {"ranks", n}});
  ring_reduce_scatter(data, op, kAllReduceTag);
  ring_all_gather(as_writable_bytes(data), sizeof(F), kAllReduceTag);
}

void Comm::all_reduce(std::span<float> data, ReduceOp op) const {
  all_reduce_impl(data, op);
}
void Comm::all_reduce(std::span<double> data, ReduceOp op) const {
  all_reduce_impl(data, op);
}

void Comm::reduce_scatter_inplace(std::span<float> data, ReduceOp op) const {
  const int n = size();
  if (n == 1 || data.empty()) return;
  fault_hook(FaultSite::kCollective);
  note_collective(comm_id_);
  obs::Span span("reduce_scatter", obs::Cat::kCollective,
                 {{"bytes", static_cast<std::int64_t>(data.size_bytes())}, {"ranks", n}});
  ring_reduce_scatter(data, op, kReduceScatterTag);
}

void Comm::all_gather_inplace_bytes(std::span<std::uint8_t> data,
                                    std::size_t elem_size) const {
  const int n = size();
  if (n == 1 || data.empty()) return;
  fault_hook(FaultSite::kCollective);
  note_collective(comm_id_);
  obs::Span span("all_gather", obs::Cat::kCollective,
                 {{"bytes", static_cast<std::int64_t>(data.size())}, {"ranks", n}});
  ring_all_gather(data, elem_size, kAllGatherTag);
}

void Comm::all_gather_bytes(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  const int n = size();
  const std::size_t shard = in.size();
  PTDP_CHECK_EQ(out.size(), shard * static_cast<std::size_t>(n));
  std::memcpy(out.data() + static_cast<std::size_t>(rank_) * shard, in.data(), shard);
  if (n == 1) return;
  fault_hook(FaultSite::kCollective);
  note_collective(comm_id_);
  obs::Span span("all_gather", obs::Cat::kCollective,
                 {{"bytes", static_cast<std::int64_t>(out.size())}, {"ranks", n}});
  const int next = (rank_ + 1) % n;
  const int prev = (rank_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const std::size_t send_c = static_cast<std::size_t>((rank_ - step + n) % n);
    const std::size_t recv_c = static_cast<std::size_t>((rank_ - step - 1 + 2 * n) % n);
    send(std::span<const std::uint8_t>(out.data() + send_c * shard, shard), next,
         kAllGatherTag);
    recv(std::span<std::uint8_t>(out.data() + recv_c * shard, shard), prev,
         kAllGatherTag);
  }
}

std::vector<std::vector<std::uint8_t>> Comm::all_gather_variable(
    std::span<const std::uint8_t> in) const {
  const int n = size();
  std::vector<std::vector<std::uint8_t>> result(static_cast<std::size_t>(n));
  result[static_cast<std::size_t>(rank_)].assign(in.begin(), in.end());
  if (n > 1) {
    fault_hook(FaultSite::kCollective);
    note_collective(comm_id_);
  }
  obs::Span span("all_gather_variable", obs::Cat::kCollective,
                 {{"bytes", static_cast<std::int64_t>(in.size())}, {"ranks", n}});
  // Control-plane convenience: exchange sizes (fixed 8 bytes) then payloads
  // pairwise. O(n^2) messages; only used for small metadata.
  const std::uint64_t my_size = in.size();
  for (int r = 0; r < n; ++r) {
    if (r == rank_) continue;
    send(std::span<const std::uint64_t>(&my_size, 1), r, kAllGatherVarTag);
    if (!in.empty()) send(in, r, kAllGatherVarTag);
  }
  for (int r = 0; r < n; ++r) {
    if (r == rank_) continue;
    std::uint64_t sz = 0;
    recv(std::span<std::uint64_t>(&sz, 1), r, kAllGatherVarTag);
    result[static_cast<std::size_t>(r)].resize(sz);
    if (sz > 0) {
      recv(std::span<std::uint8_t>(result[static_cast<std::size_t>(r)].data(), sz), r,
           kAllGatherVarTag);
    }
  }
  return result;
}

Comm Comm::split(int color, int key) const {
  struct Entry {
    int color;
    int key;
    int rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> entries(static_cast<std::size_t>(size()));
  all_gather(std::span<const Entry>(&mine, 1),
             std::span<Entry>(entries.data(), entries.size()));

  std::vector<Entry> peers;
  for (const Entry& e : entries) {
    if (e.color == color) peers.push_back(e);
  }
  std::stable_sort(peers.begin(), peers.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  std::vector<int> child_members;
  int child_rank = -1;
  child_members.reserve(peers.size());
  for (const Entry& e : peers) {
    if (e.rank == rank_) child_rank = static_cast<int>(child_members.size());
    child_members.push_back(world_rank_of(e.rank));
  }
  PTDP_CHECK_GE(child_rank, 0);

  // Derive a child id that every member computes identically. The per-rank
  // split sequence counters agree because split() is collective and every
  // member calls splits in the same order.
  const std::uint64_t seq = next_split_seq();
  const std::uint64_t child_id = ptdp::detail::mix64(
      comm_id_ ^ ptdp::detail::mix64(seq * 0x2545F4914F6CDD1DULL + 1) ^
      ptdp::detail::mix64(static_cast<std::uint64_t>(color) + 0x9E3779B9ULL));
  return Comm(mailbox_, std::move(child_members), child_rank, child_id);
}

}  // namespace ptdp::dist
