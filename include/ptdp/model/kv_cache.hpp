#pragma once

// KV cache for incremental (single-token / chunked-prefill) decoding
// (DESIGN.md §16). The decode path (GptStage::decode) appends each layer's
// per-position K/V rows through a KvStore and attends over the cached
// prefix, reading the rows where they sit (KvStore::rows). The store is
// pure storage, so the token stream is exactly the full-forward path's.
//
// PagedKvCache is the one implementation: fixed-size blocks from the
// ptdp::mem pool (BlockAllocator, reused LIFO, so steady-state serving
// never grows the pool) and per-sequence block tables. A block holds K and
// V of every layer for `block_tokens` positions, laid out
// [layer][K|V][position][hidden_local].
// Accounting is byte-exact at block granularity and, with record_metrics
// (rank 0 only in tensor-parallel worlds), feeds the serve.kv.* metrics.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ptdp/mem/pool.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::model {

/// One sequence's slice of a decode batch: `len` new tokens whose first
/// global position is `pos` (== the number of positions already cached).
/// `len == 1` is steady-state decoding; `len > 1` is a prefill chunk.
struct DecodeSeq {
  std::uint64_t id = 0;
  std::int64_t pos = 0;
  std::int64_t len = 0;
};

/// Where positions [0, len) of one (sequence, layer) sit: head h of
/// position p is the dk floats at k[p] + h·head_stride (likewise v). The
/// scratch tensors own the bytes when the store copied them; the pointers
/// stay valid until the next rows() into this object or the sequence's drop.
struct KvRows {
  std::vector<const float*> k, v;
  std::int64_t head_stride = 0;
  tensor::Tensor scratch_k, scratch_v;
};

/// Per-(sequence, layer) K/V persistence the decode path reads and writes
/// through. Rows are [hidden_local] floats, head-major (head h occupies
/// columns [h·dk, (h+1)·dk)) — the natural per-token slice of the QKV
/// projection output on this tensor rank.
class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Stores `k2d`/`v2d` ([c, hidden_local] each) for sequence `seq` at
  /// layer `layer`, positions [pos, pos+c). `pos` must equal the number of
  /// rows already written for that (seq, layer) — appends only.
  virtual void write(std::uint64_t seq, std::int64_t layer, std::int64_t pos,
                     const tensor::Tensor& k2d, const tensor::Tensor& v2d) = 0;

  /// Copies positions [0, len) into `k`/`v`, both pre-shaped
  /// [heads_local, len, dk] with heads_local·dk == hidden_local. Pure
  /// copy: the gathered bytes equal the bytes written.
  virtual void gather(std::uint64_t seq, std::int64_t layer, std::int64_t len,
                      tensor::Tensor& k, tensor::Tensor& v) const = 0;

  /// Describes where positions [0, len) sit, as `heads` heads of `dk`
  /// floats. The default gather()s into `out`'s scratch (head stride
  /// len·dk), so a store that implements only gather() still decodes.
  virtual void rows(std::uint64_t seq, std::int64_t layer, std::int64_t len,
                    std::int64_t heads, std::int64_t dk, KvRows& out) const;

  /// Discards all state for `seq` (no-op if unknown).
  virtual void drop(std::uint64_t seq) = 0;
};

struct BlockAllocatorOptions {
  std::int64_t block_floats = 0;     ///< payload floats per block
  std::int64_t capacity_blocks = 0;  ///< hard budget; allocate() fails above it
  bool record_metrics = true;        ///< feed the serve.kv.* obs metrics
};

/// Fixed-budget block allocator over mem::acquire/release. Blocks are
/// acquired from the pool lazily (first use) and cached on an internal
/// free list forever after; free()d blocks are reused in LIFO order.
class BlockAllocator {
 public:
  explicit BlockAllocator(BlockAllocatorOptions options);
  ~BlockAllocator();
  BlockAllocator(const BlockAllocator&) = delete;
  BlockAllocator& operator=(const BlockAllocator&) = delete;

  /// A free block id, or -1 when the budget is exhausted.
  std::int32_t allocate();
  void free(std::int32_t block);
  float* data(std::int32_t block);
  const float* data(std::int32_t block) const;

  std::int64_t capacity_blocks() const { return options_.capacity_blocks; }
  std::int64_t free_blocks() const;
  std::int64_t live_blocks() const { return live_blocks_; }
  std::int64_t peak_live_blocks() const { return peak_live_blocks_; }
  std::int64_t block_bytes() const {
    return options_.block_floats * static_cast<std::int64_t>(sizeof(float));
  }
  std::int64_t live_bytes() const { return live_blocks_ * block_bytes(); }
  std::int64_t peak_bytes() const { return peak_live_blocks_ * block_bytes(); }
  /// acquire() calls made against the pool (== high-water distinct blocks).
  std::int64_t pool_acquires() const { return pool_acquires_; }

 private:
  void publish_gauges() const;

  BlockAllocatorOptions options_;
  std::vector<mem::Block> blocks_;       ///< pool blocks, indexed by block id
  std::vector<std::int32_t> free_list_;  ///< ids ready for reuse (LIFO)
  std::int64_t live_blocks_ = 0;
  std::int64_t peak_live_blocks_ = 0;
  std::int64_t pool_acquires_ = 0;
};

struct KvCacheOptions {
  std::int64_t num_layers = 0;
  std::int64_t hidden_local = 0;     ///< heads_local · head_dim on this rank
  std::int64_t block_tokens = 8;     ///< positions per block
  std::int64_t capacity_blocks = 0;  ///< shared budget across all sequences
  bool record_metrics = true;
};

/// KvStore over paged blocks: per-sequence block tables into one
/// BlockAllocator. Capacity is reserved explicitly (try_reserve) so the
/// scheduler can make admission/preemption decisions before any write;
/// write() into unreserved positions is a CHECK failure, never an alloc.
class PagedKvCache final : public KvStore {
 public:
  explicit PagedKvCache(KvCacheOptions options);

  /// Ensures `seq` has blocks for `len` total positions. Returns false —
  /// allocating nothing — when the budget cannot cover the missing blocks.
  bool try_reserve(std::uint64_t seq, std::int64_t len);
  /// Blocks needed to hold `len` positions.
  std::int64_t blocks_for(std::int64_t len) const;
  std::int64_t free_blocks() const { return allocator_.free_blocks(); }
  std::int64_t seq_blocks(std::uint64_t seq) const;
  /// Sum of all block-table lengths — must equal allocator().live_blocks().
  std::int64_t total_table_blocks() const;
  const KvCacheOptions& options() const { return options_; }
  BlockAllocator& allocator() { return allocator_; }

  // KvStore — block layout [layer][K|V][position-in-block][hl].
  void write(std::uint64_t seq, std::int64_t layer, std::int64_t pos,
             const tensor::Tensor& k2d, const tensor::Tensor& v2d) override;
  void gather(std::uint64_t seq, std::int64_t layer, std::int64_t len,
              tensor::Tensor& k, tensor::Tensor& v) const override;
  /// The block slots themselves: head stride dk, nothing copied.
  void rows(std::uint64_t seq, std::int64_t layer, std::int64_t len,
            std::int64_t heads, std::int64_t dk, KvRows& out) const override;
  /// Frees the sequence's blocks back to the allocator (preemption/finish).
  void drop(std::uint64_t seq) override;

 private:
  /// `seq`'s block table, CHECKed to hold `len` positions of `layer`.
  const std::vector<std::int32_t>& table(std::uint64_t seq, std::int64_t layer,
                                         std::int64_t len) const;
  /// Float offset of (position-in-block, layer, K=0/V=1) inside a block.
  /// A layer's K (and V) rows are contiguous across the block's positions,
  /// so decode attention's per-head reads stride by hidden_local, not by a
  /// whole position slot.
  std::int64_t slot_offset(std::int64_t pos_in_block, std::int64_t layer,
                           std::int64_t which) const {
    return ((layer * 2 + which) * options_.block_tokens + pos_in_block) *
           options_.hidden_local;
  }

  KvCacheOptions options_;
  BlockAllocator allocator_;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> tables_;
};

}  // namespace ptdp::model
