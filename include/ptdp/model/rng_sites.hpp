#pragma once

// Deterministic RNG streams for dropout sites.
//
// Every dropout mask is a pure function of (seed, microbatch tag, global
// layer index, site, sub-id): element e is dropped when draw e of the
// stream, Rng::u64_at(e), is a bernoulli(·, p) success, so no mask is
// stored: kernels draw each bit where they use it and backwards redraw it.
// Two properties follow: (a) a backward, stashed or recomputed, applies the
// exact mask of its forward, and (b) masks are layout-independent — a
// tensor-parallel rank draws the same mask for global head g that the
// serial model draws, which is what makes parallel and serial training
// equivalent even with dropout enabled. kAttentionProb keys one stream per
// (sequence bi, global head g), sub-id bi·heads + g; query i, key j is
// draw i·s + j.

#include <cstdint>

#include "ptdp/runtime/rng.hpp"

namespace ptdp::model {

enum class DropSite : std::uint64_t {
  kEmbedding = 1,
  kAttentionProb = 2,
  kAttentionResidual = 3,
  kMlpResidual = 4,
};

inline Rng site_rng(std::uint64_t seed, std::uint64_t mb_tag, std::uint64_t layer,
                    DropSite site, std::uint64_t sub = 0) {
  return Rng(seed, substream(mb_tag, (layer << 8) | static_cast<std::uint64_t>(site),
                             sub));
}

}  // namespace ptdp::model
