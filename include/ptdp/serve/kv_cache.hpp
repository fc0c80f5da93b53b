#pragma once

// The serving plane's names for the paged KV cache, which lives in
// ptdp_model next to the KvStore interface (DESIGN.md §16).

#include "ptdp/model/kv_cache.hpp"

namespace ptdp::serve {

using model::BlockAllocator;
using model::BlockAllocatorOptions;
using model::KvCacheOptions;
using model::PagedKvCache;

}  // namespace ptdp::serve
