#include "ptdp/model/kv_cache.hpp"

#include <algorithm>

#include "ptdp/obs/metrics.hpp"

namespace ptdp::model {

using tensor::Tensor;

void KvStore::rows(std::uint64_t seq, std::int64_t layer, std::int64_t len,
                   std::int64_t heads, std::int64_t dk, KvRows& out) const {
  out.scratch_k = Tensor::empty({heads, len, dk});
  out.scratch_v = Tensor::empty({heads, len, dk});
  gather(seq, layer, len, out.scratch_k, out.scratch_v);
  out.k.clear();
  out.v.clear();
  for (std::int64_t p = 0; p < len; ++p) {
    out.k.push_back(out.scratch_k.data().data() + p * dk);
    out.v.push_back(out.scratch_v.data().data() + p * dk);
  }
  out.head_stride = len * dk;
}

BlockAllocator::BlockAllocator(BlockAllocatorOptions options)
    : options_(options) {
  PTDP_CHECK_GT(options_.block_floats, 0);
  PTDP_CHECK_GT(options_.capacity_blocks, 0);
  blocks_.reserve(static_cast<std::size_t>(options_.capacity_blocks));
}

BlockAllocator::~BlockAllocator() {
  for (mem::Block& b : blocks_) {
    mem::account_adjust(-options_.block_floats);
    mem::release(b.data, b.capacity);
  }
}

std::int32_t BlockAllocator::allocate() {
  std::int32_t id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    if (options_.record_metrics && obs::metrics_on()) {
      obs::MetricsRegistry::instance().counter("serve.kv.block_reuses").add();
    }
  } else {
    if (static_cast<std::int64_t>(blocks_.size()) >= options_.capacity_blocks) {
      return -1;
    }
    id = static_cast<std::int32_t>(blocks_.size());
    blocks_.push_back(
        mem::acquire(static_cast<std::size_t>(options_.block_floats)));
    ++pool_acquires_;
    if (options_.record_metrics && obs::metrics_on()) {
      obs::MetricsRegistry::instance().counter("serve.kv.pool_acquires").add();
    }
  }
  ++live_blocks_;
  peak_live_blocks_ = std::max(peak_live_blocks_, live_blocks_);
  publish_gauges();
  return id;
}

void BlockAllocator::free(std::int32_t block) {
  PTDP_CHECK(block >= 0 && block < static_cast<std::int32_t>(blocks_.size()))
      << "free of unknown block " << block;
  free_list_.push_back(block);
  --live_blocks_;
  PTDP_CHECK_GE(live_blocks_, 0) << "double free";
  publish_gauges();
}

float* BlockAllocator::data(std::int32_t block) {
  PTDP_CHECK(block >= 0 && block < static_cast<std::int32_t>(blocks_.size()));
  return blocks_[static_cast<std::size_t>(block)].data;
}

const float* BlockAllocator::data(std::int32_t block) const {
  PTDP_CHECK(block >= 0 && block < static_cast<std::int32_t>(blocks_.size()));
  return blocks_[static_cast<std::size_t>(block)].data;
}

std::int64_t BlockAllocator::free_blocks() const {
  return options_.capacity_blocks - live_blocks_;
}

void BlockAllocator::publish_gauges() const {
  if (!options_.record_metrics || !obs::metrics_on()) return;
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("serve.kv.live_bytes").set(static_cast<double>(live_bytes()));
  reg.gauge("serve.kv.peak_bytes").set(static_cast<double>(peak_bytes()));
}

PagedKvCache::PagedKvCache(KvCacheOptions options)
    : options_(options),
      allocator_({options.block_tokens * options.num_layers * 2 *
                      options.hidden_local,
                  options.capacity_blocks, options.record_metrics}) {
  PTDP_CHECK_GT(options_.num_layers, 0);
  PTDP_CHECK_GT(options_.hidden_local, 0);
  PTDP_CHECK_GT(options_.block_tokens, 0);
}

std::int64_t PagedKvCache::blocks_for(std::int64_t len) const {
  return (len + options_.block_tokens - 1) / options_.block_tokens;
}

bool PagedKvCache::try_reserve(std::uint64_t seq, std::int64_t len) {
  auto& table = tables_[seq];
  const std::int64_t need =
      blocks_for(len) - static_cast<std::int64_t>(table.size());
  if (need <= 0) return true;
  if (need > allocator_.free_blocks()) return false;
  for (std::int64_t i = 0; i < need; ++i) {
    const std::int32_t id = allocator_.allocate();
    PTDP_CHECK_GE(id, 0);  // guarded by the free-count check above
    table.push_back(id);
  }
  return true;
}

std::int64_t PagedKvCache::seq_blocks(std::uint64_t seq) const {
  auto it = tables_.find(seq);
  return it == tables_.end() ? 0 : static_cast<std::int64_t>(it->second.size());
}

std::int64_t PagedKvCache::total_table_blocks() const {
  std::int64_t n = 0;
  for (const auto& [id, table] : tables_) {
    n += static_cast<std::int64_t>(table.size());
  }
  return n;
}

const std::vector<std::int32_t>& PagedKvCache::table(std::uint64_t seq,
                                                    std::int64_t layer,
                                                    std::int64_t len) const {
  PTDP_CHECK(layer >= 0 && layer < options_.num_layers);
  auto it = tables_.find(seq);
  PTDP_CHECK(it != tables_.end()) << "no block table for sequence " << seq;
  PTDP_CHECK_LE(len, static_cast<std::int64_t>(it->second.size()) *
                         options_.block_tokens)
      << "past the reserved block table";
  return it->second;
}

void PagedKvCache::write(std::uint64_t seq, std::int64_t layer, std::int64_t pos,
                         const Tensor& k2d, const Tensor& v2d) {
  PTDP_CHECK_EQ(k2d.ndim(), 2);
  PTDP_CHECK(k2d.same_shape(v2d));
  const std::int64_t c = k2d.dim(0);
  const std::int64_t hl = k2d.dim(1);
  const std::int64_t bt = options_.block_tokens;
  PTDP_CHECK_EQ(hl, options_.hidden_local);
  const auto& blocks = table(seq, layer, pos + c);
  const float* k = k2d.data().data();
  const float* v = v2d.data().data();
  for (std::int64_t p = pos; p < pos + c; ++p) {
    float* block = allocator_.data(blocks[static_cast<std::size_t>(p / bt)]);
    std::copy_n(k + (p - pos) * hl, hl, block + slot_offset(p % bt, layer, 0));
    std::copy_n(v + (p - pos) * hl, hl, block + slot_offset(p % bt, layer, 1));
  }
}

void PagedKvCache::gather(std::uint64_t seq, std::int64_t layer, std::int64_t len,
                          Tensor& k, Tensor& v) const {
  PTDP_CHECK_EQ(k.ndim(), 3);
  PTDP_CHECK(k.same_shape(v));
  PTDP_CHECK_EQ(k.dim(1), len);
  const std::int64_t heads = k.dim(0), dk = k.dim(2);
  KvRows r;
  rows(seq, layer, len, heads, dk, r);
  auto dk_out = k.data();
  auto dv_out = v.data();
  for (std::int64_t p = 0; p < len; ++p) {
    for (std::int64_t a = 0; a < heads; ++a) {
      std::copy_n(r.k[static_cast<std::size_t>(p)] + a * dk,
                  static_cast<std::size_t>(dk), dk_out.data() + (a * len + p) * dk);
      std::copy_n(r.v[static_cast<std::size_t>(p)] + a * dk,
                  static_cast<std::size_t>(dk), dv_out.data() + (a * len + p) * dk);
    }
  }
}

void PagedKvCache::rows(std::uint64_t seq, std::int64_t layer, std::int64_t len,
                        std::int64_t heads, std::int64_t dk, KvRows& out) const {
  const std::int64_t bt = options_.block_tokens;
  PTDP_CHECK_EQ(heads * dk, options_.hidden_local);
  const auto& blocks = table(seq, layer, len);
  out.k.clear();
  out.v.clear();
  for (std::int64_t p = 0; p < len; ++p) {
    const float* block = allocator_.data(blocks[static_cast<std::size_t>(p / bt)]);
    out.k.push_back(block + slot_offset(p % bt, layer, 0));
    out.v.push_back(block + slot_offset(p % bt, layer, 1));
  }
  out.head_stride = dk;
}

void PagedKvCache::drop(std::uint64_t seq) {
  auto it = tables_.find(seq);
  if (it == tables_.end()) return;
  for (std::int32_t id : it->second) allocator_.free(id);
  tables_.erase(it);
}

}  // namespace ptdp::model
