// Conformance of tensor::attention, the one attention body (DESIGN.md §14,
// §16): the training forward, the full forward, prefill and decode all run
// it, so the model-level oracles (decode ≡ full forward, serial ≡ parallel)
// hold only if every output row is a pure function of its inputs.
//   1. Against a double-precision reference, causal and not, len 1…300
//      (across a 256 boundary), dk 16/40/64, bitwise equal at 1–4 threads.
//   2. An m-row call at offset pos equals rows [pos, pos + m) of the full
//      call bit for bit (decode and prefill chunks against the full forward).
//   3. K/V read through shuffled row tables, at head stride dk (paged block
//      slots) and len·dk (a gathered [heads, len, dk] copy), equal the
//      contiguous QKV rows bit for bit.
//   4. With a dropout mask: P is the unmasked softmax and P ⊙ mask is
//      exactly their product; the context follows P ⊙ mask.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::tensor {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(runtime::intra_op_threads()) {}
  ~ThreadGuard() { runtime::set_intra_op_threads(saved_); }

 private:
  std::size_t saved_;
};

// One sequence in the training layout: row j of `qkv` is [heads][q|k|v][dk].
struct Problem {
  std::int64_t heads, len, dk;
  std::vector<float> qkv;
  float scale;

  Problem(std::int64_t heads_, std::int64_t len_, std::int64_t dk_, Rng& rng)
      : heads(heads_), len(len_), dk(dk_),
        qkv(static_cast<std::size_t>(len_ * 3 * heads_ * dk_)),
        scale(1.0f / std::sqrt(static_cast<float>(dk_))) {
    for (float& x : qkv) x = static_cast<float>(rng.next_gaussian());
  }
  std::int64_t row() const { return 3 * heads * dk; }
  const float* q(std::int64_t i) const { return qkv.data() + i * row(); }
  const float* k(std::int64_t j) const { return q(j) + dk; }
  const float* v(std::int64_t j) const { return q(j) + 2 * dk; }
};

struct Result {
  std::vector<float> ctx;    ///< [m, heads·dk]
  std::vector<float> probs;  ///< [heads, m, keys]
  std::int64_t keys = 0;
};

// Queries [pos, pos + m) against keys [0, keys) of the contiguous rows, with
// keys = pos + m when causal (decode and prefill see only the past) and the
// whole sequence otherwise.
Result run(const Problem& p, std::int64_t pos, std::int64_t m, bool causal,
           const float* drop_mask = nullptr, std::vector<float>* dropped = nullptr) {
  Result r;
  r.keys = causal ? pos + m : p.len;
  std::vector<const float*> k, v;
  for (std::int64_t j = 0; j < r.keys; ++j) {
    k.push_back(p.k(j));
    v.push_back(p.v(j));
  }
  r.ctx.assign(static_cast<std::size_t>(m * p.heads * p.dk), -1.0f);
  r.probs.assign(static_cast<std::size_t>(p.heads * m * r.keys), -1.0f);
  if (dropped != nullptr) dropped->assign(r.probs.size(), -1.0f);
  const AttentionSeq seq{p.q(pos), p.row(), m, pos, k, v, 3 * p.dk,
                         r.ctx.data(), p.heads * p.dk, r.probs.data(), drop_mask,
                         dropped != nullptr ? dropped->data() : nullptr};
  attention({&seq, 1}, {p.heads, p.dk, 3 * p.dk, p.scale, causal});
  return r;
}

double max_abs(const std::vector<float>& a) {
  double m = 0.0;
  for (float x : a) m = std::max(m, static_cast<double>(std::fabs(x)));
  return m;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Double-precision softmax(scale · q kᵀ + mask) · v of query i, head h; the
// probabilities land in `p` (masked keys 0), weighted by `mask` if given.
void reference_row(const Problem& pr, std::int64_t i, std::int64_t h,
                   std::int64_t keys, bool causal, const float* mask,
                   std::vector<double>& p, std::vector<double>& o) {
  const std::int64_t visible = causal ? i + 1 : keys;
  p.assign(static_cast<std::size_t>(keys), 0.0);
  double mx = -std::numeric_limits<double>::infinity();
  for (std::int64_t j = 0; j < visible; ++j) {
    double s = 0.0;
    for (std::int64_t d = 0; d < pr.dk; ++d) {
      s += static_cast<double>(pr.q(i)[h * 3 * pr.dk + d]) *
           pr.k(j)[h * 3 * pr.dk + d];
    }
    p[static_cast<std::size_t>(j)] = s * pr.scale;
    mx = std::max(mx, s * pr.scale);
  }
  double denom = 0.0;
  for (std::int64_t j = 0; j < visible; ++j) {
    auto& x = p[static_cast<std::size_t>(j)];
    x = std::exp(x - mx);
    denom += x;
  }
  o.assign(static_cast<std::size_t>(pr.dk), 0.0);
  for (std::int64_t j = 0; j < visible; ++j) {
    auto& x = p[static_cast<std::size_t>(j)];
    x /= denom;
    const double w = mask != nullptr ? x * mask[j] : x;
    for (std::int64_t d = 0; d < pr.dk; ++d) {
      o[static_cast<std::size_t>(d)] += w * pr.v(j)[h * 3 * pr.dk + d];
    }
  }
}

// Stated bound. Inputs are N(0, 1) and scale 1/√dk, so scale·s is O(1), P
// lies in [0, 1] and each context element is a convex combination of v's,
// bounded by max|v|. f32 rounding enters through a dk-term dot, one expf per
// key (≤ 1 ulp) and len-term sums in ascending order. The bounds are 2·10⁻⁶
// of max|v| for the context and 10⁻⁶ absolute for P. The largest errors
// this sweep measures are 1.5·10⁻⁷ and 1.9·10⁻⁷: the bounds sit 5–15x
// above them, and far below what a wrong mask, key or weight would cost.
constexpr double kCtxBound = 2e-6;
constexpr double kProbBound = 1e-6;

TEST(AttentionConformance, MatchesDoubleReferenceAndIsThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(2301);
  std::vector<double> p, o;
  for (const std::int64_t dk : {16, 40, 64}) {
    for (const std::int64_t len : {1, 2, 5, 13, 31, 64, 129, 255, 256, 257, 300}) {
      for (const bool causal : {true, false}) {
        SCOPED_TRACE(testing::Message() << "dk " << dk << " len " << len
                                        << (causal ? " causal" : " full"));
        const Problem pr(3, len, dk, rng);
        runtime::set_intra_op_threads(1);
        const Result serial = run(pr, 0, len, causal);
        double ctx_err = 0.0, prob_err = 0.0;
        for (std::int64_t i = 0; i < len; ++i) {
          for (std::int64_t h = 0; h < pr.heads; ++h) {
            reference_row(pr, i, h, len, causal, nullptr, p, o);
            const float* got_p = serial.probs.data() + (h * len + i) * len;
            for (std::size_t j = 0; j < p.size(); ++j) {
              prob_err = std::max(prob_err, std::fabs(got_p[j] - p[j]));
            }
            const float* got_o = serial.ctx.data() + i * pr.heads * dk + h * dk;
            for (std::size_t d = 0; d < o.size(); ++d) {
              ctx_err = std::max(ctx_err, std::fabs(got_o[d] - o[d]));
            }
          }
        }
        EXPECT_LE(ctx_err, kCtxBound * max_abs(pr.qkv));
        EXPECT_LE(prob_err, kProbBound);
        for (const std::size_t threads : {2u, 3u, 4u}) {
          runtime::set_intra_op_threads(threads);
          const Result again = run(pr, 0, len, causal);
          EXPECT_TRUE(bitwise_equal(again.ctx, serial.ctx)) << threads;
          EXPECT_TRUE(bitwise_equal(again.probs, serial.probs)) << threads;
        }
      }
    }
  }
}

TEST(AttentionConformance, RowsAtAnOffsetEqualTheFullCallBitwise) {
  ThreadGuard guard;
  Rng rng(2302);
  for (const std::int64_t dk : {16, 40, 64}) {
    for (const bool causal : {true, false}) {
      const Problem pr(2, 300, dk, rng);
      const Result full = run(pr, 0, pr.len, causal);
      for (const std::int64_t m : {1, 3, 8, 13}) {
        for (const std::int64_t pos : {std::int64_t{0}, std::int64_t{1},
                                       std::int64_t{5}, std::int64_t{127},
                                       std::int64_t{255}, 300 - m}) {
          SCOPED_TRACE(testing::Message() << "dk " << dk << " m " << m << " pos "
                                          << pos << (causal ? " causal" : " full"));
          for (const std::size_t threads : {1u, 4u}) {
            runtime::set_intra_op_threads(threads);
            const Result part = run(pr, pos, m, causal);
            const std::int64_t hl = pr.heads * dk;
            EXPECT_EQ(std::memcmp(part.ctx.data(), full.ctx.data() + pos * hl,
                                  part.ctx.size() * sizeof(float)),
                      0)
                << "context, " << threads << " threads";
            for (std::int64_t h = 0; h < pr.heads; ++h) {
              for (std::int64_t i = 0; i < m; ++i) {
                const float* want = full.probs.data() + (h * pr.len + pos + i) * pr.len;
                const float* got = part.probs.data() + (h * m + i) * part.keys;
                ASSERT_EQ(std::memcmp(got, want, part.keys * sizeof(float)), 0)
                    << "P row " << i << " head " << h << ", " << threads << " threads";
              }
            }
          }
        }
      }
    }
  }
}

// K/V scattered over a buffer in shuffled slot order, like KV-cache block
// slots, read through per-position row tables. Head stride dk: each slot
// holds one position's heads side by side (the paged store). Head stride
// len·dk: the row table walks a gathered [heads, len, dk] copy (the
// KvStore::rows default).
TEST(AttentionConformance, ShuffledRowTablesMatchContiguousRows) {
  ThreadGuard guard;
  Rng rng(2303);
  constexpr std::int64_t kHeads = 3;
  for (const std::int64_t dk : {16, 40}) {
    for (const std::int64_t len : {1, 37, 300}) {
      const Problem pr(kHeads, len, dk, rng);
      const std::int64_t hl = kHeads * dk;
      const std::int64_t stride = 2 * hl + 5;  // a slot stride, not hl
      std::vector<std::int64_t> slot(static_cast<std::size_t>(len));
      for (std::int64_t j = 0; j < len; ++j) slot[static_cast<std::size_t>(j)] = j;
      for (std::int64_t j = len - 1; j > 0; --j) {
        std::swap(slot[static_cast<std::size_t>(j)],
                  slot[rng.next_below(static_cast<std::uint64_t>(j + 1))]);
      }
      std::vector<float> paged(static_cast<std::size_t>(len * stride), NAN);
      std::vector<float> gathered_k(static_cast<std::size_t>(len * hl));
      std::vector<float> gathered_v(gathered_k.size());
      std::vector<const float*> pk, pv, gk, gv;
      for (std::int64_t j = 0; j < len; ++j) {
        float* s = paged.data() + slot[static_cast<std::size_t>(j)] * stride;
        for (std::int64_t h = 0; h < kHeads; ++h) {
          std::copy_n(pr.k(j) + h * 3 * dk, dk, s + h * dk);
          std::copy_n(pr.v(j) + h * 3 * dk, dk, s + hl + h * dk);
          std::copy_n(pr.k(j) + h * 3 * dk, dk, gathered_k.data() + (h * len + j) * dk);
          std::copy_n(pr.v(j) + h * 3 * dk, dk, gathered_v.data() + (h * len + j) * dk);
        }
        pk.push_back(s);
        pv.push_back(s + hl);
        gk.push_back(gathered_k.data() + j * dk);
        gv.push_back(gathered_v.data() + j * dk);
      }
      for (const std::int64_t m : {std::int64_t{1}, std::int64_t{13}, len}) {
        if (m > len) continue;
        SCOPED_TRACE(testing::Message() << "dk " << dk << " len " << len << " m " << m);
        const std::int64_t pos = len - m;
        const Result want = run(pr, pos, m, /*causal=*/true);
        for (const std::size_t threads : {1u, 4u}) {
          runtime::set_intra_op_threads(threads);
          for (const bool paged_layout : {true, false}) {
            std::vector<float> ctx(want.ctx.size(), -1.0f);
            std::vector<float> probs(want.probs.size(), -1.0f);
            const AttentionSeq seq{pr.q(pos), pr.row(), m, pos,
                                   paged_layout ? pk : gk, paged_layout ? pv : gv,
                                   paged_layout ? dk : len * dk, ctx.data(), hl,
                                   probs.data()};
            attention({&seq, 1}, {kHeads, dk, 3 * dk, pr.scale, true});
            const char* layout = paged_layout ? "paged" : "gathered";
            EXPECT_TRUE(bitwise_equal(ctx, want.ctx)) << layout << ", " << threads;
            EXPECT_TRUE(bitwise_equal(probs, want.probs)) << layout << ", " << threads;
          }
        }
      }
    }
  }
}

TEST(AttentionConformance, DropoutMaskScalesPBeforeTheValues) {
  Rng rng(2304);
  const Problem pr(2, 45, 40, rng);
  const float keep = 1.0f / 0.7f;
  std::vector<float> mask(static_cast<std::size_t>(pr.heads * pr.len * pr.len));
  for (float& x : mask) x = rng.next_bernoulli(0.3f) ? 0.0f : keep;
  for (const bool causal : {true, false}) {
    SCOPED_TRACE(causal ? "causal" : "full");
    const Result plain = run(pr, 0, pr.len, causal);
    std::vector<float> dropped;
    const Result masked = run(pr, 0, pr.len, causal, mask.data(), &dropped);
    // P is the unmasked softmax; P ⊙ mask is exactly tensor::mul's product.
    EXPECT_TRUE(bitwise_equal(masked.probs, plain.probs));
    for (std::size_t e = 0; e < mask.size(); ++e) {
      ASSERT_EQ(dropped[e], masked.probs[e] * mask[e]) << "element " << e;
    }
    std::vector<double> p, o;
    double err = 0.0;
    for (std::int64_t h = 0; h < pr.heads; ++h) {
      for (std::int64_t i = 0; i < pr.len; ++i) {
        reference_row(pr, i, h, pr.len, causal,
                      mask.data() + (h * pr.len + i) * pr.len, p, o);
        for (std::int64_t d = 0; d < pr.dk; ++d) {
          const float got = masked.ctx[static_cast<std::size_t>(
              i * pr.heads * pr.dk + h * pr.dk + d)];
          err = std::max(err, std::fabs(got - o[static_cast<std::size_t>(d)]));
        }
      }
    }
    EXPECT_LE(err, keep * kCtxBound * max_abs(pr.qkv));
  }
}

}  // namespace
}  // namespace ptdp::tensor
