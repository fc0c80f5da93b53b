// Conformance of tensor::attention and tensor::attention_backward, the one
// attention body and its one backward (DESIGN.md §8, §14, §16): the
// training forward, the full forward, prefill and decode all run the
// forward, and every training plan runs the backward, so the model-level
// oracles (decode ≡ full forward, serial ≡ parallel) hold only if every
// output row is a pure function of its inputs.
//   1. Against a double-precision reference, causal and not, len 1…300
//      (across a 256 boundary), dk 16/40/64, bitwise equal at 1–4 threads.
//   2. An m-row call at offset pos equals rows [pos, pos + m) of the full
//      call bit for bit (decode and prefill chunks against the full forward).
//   3. K/V read through shuffled row tables, at head stride dk (paged block
//      slots) and len·dk (a gathered [heads, len, dk] copy), equal the
//      contiguous QKV rows bit for bit.
//   4. With dropout, against a mask the test draws element by element with
//      next_bernoulli from the same streams: P ⊙ mask is exactly the
//      unmasked P times it, and the context and dV (which reads P ⊙ mask)
//      equal what that explicit mask gives, bit for bit, causal and not, at
//      1–4 threads; dQ/dK/dV meet it through the reference of 5.
//   5. The backward's dQ/dK/dV against a double-precision reference, with
//      and without a dropout mask, causal and not, len 1…300, dk 16/40/64,
//      bitwise equal at 1–4 threads and through shuffled row tables; its
//      key phase sums queries in ascending order.
// P is no output of the kernel; the tests read it as the context of
// one-hot value rows (probs_of).

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
  std::vector<const float*> k_rows(std::int64_t keys) const {
    std::vector<const float*> t;
    for (std::int64_t j = 0; j < keys; ++j) t.push_back(k(j));
    return t;
  }
  std::vector<const float*> v_rows(std::int64_t keys) const {
    std::vector<const float*> t;
    for (std::int64_t j = 0; j < keys; ++j) t.push_back(v(j));
    return t;
  }
};

// P ⊙ mask (P without a mask) of `seq`, [heads, m, keys], read as the
// context of one-hot value rows: window w sets v_j = e_{j − w·dk} in every
// head for the dk keys j of the window and v_j = 0 elsewhere, so each
// context lane is one p_ij added to zeros — p_ij exactly.
std::vector<float> probs_of(AttentionSeq seq, const AttentionShape& sh) {
  const auto keys = static_cast<std::int64_t>(seq.k.size());
  const std::int64_t dk = sh.dk, hs = seq.kv_head_stride;
  const std::int64_t row = (sh.heads - 1) * hs + dk;
  std::vector<float> eye(static_cast<std::size_t>((dk + 1) * row), 0.0f);  // row dk: 0
  for (std::int64_t d = 0; d < dk; ++d) {
    for (std::int64_t h = 0; h < sh.heads; ++h) {
      eye[static_cast<std::size_t>(d * row + h * hs + d)] = 1.0f;
    }
  }
  std::vector<float> ctx(static_cast<std::size_t>(seq.m * sh.heads * dk));
  std::vector<float> probs(static_cast<std::size_t>(sh.heads * seq.m * keys));
  std::vector<const float*> v(static_cast<std::size_t>(keys));
  seq.v = v;
  seq.out = ctx.data();
  seq.out_stride = sh.heads * dk;
  for (std::int64_t w0 = 0; w0 < keys; w0 += dk) {
    for (std::int64_t j = 0; j < keys; ++j) {
      v[static_cast<std::size_t>(j)] =
          eye.data() + (j >= w0 && j < w0 + dk ? j - w0 : dk) * row;
    }
    attention({&seq, 1}, sh);
    for (std::int64_t h = 0; h < sh.heads; ++h) {
      for (std::int64_t i = 0; i < seq.m; ++i) {
        for (std::int64_t d = 0; d < dk && w0 + d < keys; ++d) {
          probs[static_cast<std::size_t>((h * seq.m + i) * keys + w0 + d)] =
              ctx[static_cast<std::size_t>(i * sh.heads * dk + h * dk + d)];
        }
      }
    }
  }
  return probs;
}

// The dropout of one sequence: a stream per head, and p.
struct Dropout {
  std::vector<Rng> streams;
  float p;

  Dropout(std::int64_t heads, float p_, Rng& rng) : p(p_) {
    for (std::int64_t h = 0; h < heads; ++h) streams.emplace_back(rng.next_u64(), h);
  }
  void apply(AttentionSeq& seq) const {
    seq.drop = streams;
    seq.drop_p = p;
  }
  // The explicit [heads, m, len] mask: element (h, i, j) is the next_bernoulli
  // draw i·len + j of stream h, 0 (dropped) or 1/(1 − p).
  std::vector<float> mask(std::int64_t m, std::int64_t len) const {
    const float keep = 1.0f / (1.0f - p);
    std::vector<float> out;
    for (const Rng& s : streams) {
      Rng draws = s;
      for (std::int64_t e = 0; e < m * len; ++e) {
        out.push_back(draws.next_bernoulli(p) ? 0.0f : keep);
      }
    }
    return out;
  }
};

struct Result {
  std::vector<float> ctx;    ///< [m, heads·dk]
  std::vector<float> probs;  ///< [heads, m, keys], P ⊙ mask with a mask
  std::int64_t keys = 0;
};

// Queries [pos, pos + m) against keys [0, keys) of the contiguous rows, with
// keys = pos + m when causal (decode and prefill see only the past) and the
// whole sequence otherwise.
Result run(const Problem& p, std::int64_t pos, std::int64_t m, bool causal,
           const Dropout* drop = nullptr) {
  Result r;
  r.keys = causal ? pos + m : p.len;
  const std::vector<const float*> k = p.k_rows(r.keys), v = p.v_rows(r.keys);
  r.ctx.assign(static_cast<std::size_t>(m * p.heads * p.dk), -1.0f);
  AttentionSeq seq{p.q(pos), p.row(), m, pos, k, v, 3 * p.dk,
                   r.ctx.data(), p.heads * p.dk};
  if (drop != nullptr) drop->apply(seq);
  const AttentionShape sh{p.heads, p.dk, 3 * p.dk, p.scale, causal};
  attention({&seq, 1}, sh);
  r.probs = probs_of(seq, sh);
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
// this sweep measures are 5.8·10⁻⁷ of max|v| and 7.1·10⁻⁷ (the data are
// seeded, so these are fixed): the bounds sit 1.4–3.4x above them, and far
// below what a wrong mask, key or weight would cost.
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
// slots, read (and, for the backward, dK/dV written) through per-position
// row tables. Head stride dk: each slot holds one position's heads side by
// side (the paged store). Head stride len·dk: the row table walks a
// gathered [heads, len, dk] copy (the KvStore::rows default).
struct ShuffledRows {
  std::vector<std::int64_t> slot;  ///< position j lives in slot[j]
  std::int64_t stride;             ///< floats per slot
};

ShuffledRows shuffle(std::int64_t len, std::int64_t stride, Rng& rng) {
  ShuffledRows s{std::vector<std::int64_t>(static_cast<std::size_t>(len)), stride};
  for (std::int64_t j = 0; j < len; ++j) s.slot[static_cast<std::size_t>(j)] = j;
  for (std::int64_t j = len - 1; j > 0; --j) {
    std::swap(s.slot[static_cast<std::size_t>(j)],
              s.slot[rng.next_below(static_cast<std::uint64_t>(j + 1))]);
  }
  return s;
}

TEST(AttentionConformance, ShuffledRowTablesMatchContiguousRows) {
  ThreadGuard guard;
  Rng rng(2303);
  constexpr std::int64_t kHeads = 3;
  for (const std::int64_t dk : {16, 40}) {
    for (const std::int64_t len : {1, 37, 300}) {
      const Problem pr(kHeads, len, dk, rng);
      const std::int64_t hl = kHeads * dk;
      const ShuffledRows sh = shuffle(len, 2 * hl + 5, rng);  // a slot stride, not hl
      std::vector<float> paged(static_cast<std::size_t>(len * sh.stride), NAN);
      std::vector<float> gathered_k(static_cast<std::size_t>(len * hl));
      std::vector<float> gathered_v(gathered_k.size());
      std::vector<const float*> pk, pv, gk, gv;
      for (std::int64_t j = 0; j < len; ++j) {
        float* s = paged.data() + sh.slot[static_cast<std::size_t>(j)] * sh.stride;
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
            const AttentionSeq seq{pr.q(pos), pr.row(), m, pos,
                                   paged_layout ? pk : gk, paged_layout ? pv : gv,
                                   paged_layout ? dk : len * dk, ctx.data(), hl};
            const AttentionShape shape{kHeads, dk, 3 * dk, pr.scale, true};
            attention({&seq, 1}, shape);
            const char* layout = paged_layout ? "paged" : "gathered";
            EXPECT_TRUE(bitwise_equal(ctx, want.ctx)) << layout << ", " << threads;
            EXPECT_TRUE(bitwise_equal(probs_of(seq, shape), want.probs))
                << layout << ", " << threads;
          }
        }
      }
    }
  }
}

TEST(AttentionConformance, DropoutMaskScalesPBeforeTheValues) {
  ThreadGuard guard;
  Rng rng(2304);
  const Problem pr(2, 45, 40, rng);
  const Dropout drop(pr.heads, 0.3f, rng);
  const std::vector<float> mask = drop.mask(pr.len, pr.len);
  const float keep = 1.0f / 0.7f;
  for (const bool causal : {true, false}) {
    SCOPED_TRACE(causal ? "causal" : "full");
    const Result plain = run(pr, 0, pr.len, causal);
    runtime::set_intra_op_threads(1);
    const Result masked = run(pr, 0, pr.len, causal, &drop);
    // P ⊙ mask is exactly tensor::mul's product of the unmasked P and the
    // explicit mask.
    for (std::size_t e = 0; e < mask.size(); ++e) {
      ASSERT_EQ(masked.probs[e], plain.probs[e] * mask[e]) << "element " << e;
    }
    for (const std::size_t threads : {2u, 3u, 4u}) {
      runtime::set_intra_op_threads(threads);
      const Result again = run(pr, 0, pr.len, causal, &drop);
      EXPECT_TRUE(bitwise_equal(again.ctx, masked.ctx)) << threads;
      EXPECT_TRUE(bitwise_equal(again.probs, masked.probs)) << threads;
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

// ---- backward ---------------------------------------------------------------

// dQ/dK/dV of all len queries of `p` for upstream rows dout [len, heads·dk],
// written into rows laid out like the qkv rows, K/V read (and dK/dV
// written) through the row tables of `rows` when given.
std::vector<float> run_backward(const Problem& p, const std::vector<float>& dout,
                                bool causal, const Dropout* drop,
                                const ShuffledRows* rows = nullptr) {
  std::vector<float> dqkv(p.qkv.size(), NAN);
  std::vector<float> slots;
  std::vector<const float*> k = p.k_rows(p.len), v = p.v_rows(p.len);
  std::vector<float*> dk, dv;
  std::int64_t head_stride = 3 * p.dk;
  for (std::int64_t j = 0; j < p.len; ++j) {
    dk.push_back(dqkv.data() + j * p.row() + p.dk);
    dv.push_back(dqkv.data() + j * p.row() + 2 * p.dk);
  }
  const std::int64_t hl = p.heads * p.dk;
  if (rows != nullptr) {  // [K | V | dK | dV] per slot, head stride dk
    head_stride = p.dk;
    slots.assign(static_cast<std::size_t>(p.len * rows->stride), NAN);
    for (std::int64_t j = 0; j < p.len; ++j) {
      float* s = slots.data() + rows->slot[static_cast<std::size_t>(j)] * rows->stride;
      for (std::int64_t h = 0; h < p.heads; ++h) {
        std::copy_n(p.k(j) + h * 3 * p.dk, p.dk, s + h * p.dk);
        std::copy_n(p.v(j) + h * 3 * p.dk, p.dk, s + hl + h * p.dk);
      }
      const auto u = static_cast<std::size_t>(j);
      k[u] = s;
      v[u] = s + hl;
      dk[u] = s + 2 * hl;
      dv[u] = s + 3 * hl;
    }
  }
  AttentionGradSeq g{{p.q(0), p.row(), p.len, 0, k, v, head_stride},
                     dout.data(), hl, dqkv.data(), p.row(), dk, dv};
  if (drop != nullptr) drop->apply(g.seq);
  attention_backward({&g, 1}, {p.heads, p.dk, 3 * p.dk, p.scale, causal});
  if (rows != nullptr) {  // back into the qkv layout
    for (std::int64_t j = 0; j < p.len; ++j) {
      const auto u = static_cast<std::size_t>(j);
      for (std::int64_t h = 0; h < p.heads; ++h) {
        float* d = dqkv.data() + j * p.row() + h * 3 * p.dk;
        std::copy_n(dk[u] + h * p.dk, p.dk, d + p.dk);
        std::copy_n(dv[u] + h * p.dk, p.dk, d + 2 * p.dk);
      }
    }
  }
  return dqkv;
}

// Double-precision dQ/dK/dV (rows laid out like the qkv rows) of
// softmax(scale · q kᵀ + causal mask) ⊙ mask · v for upstream rows dout.
std::vector<double> reference_backward(const Problem& pr,
                                       const std::vector<float>& dout,
                                       bool causal, const float* mask) {
  std::vector<double> grad(pr.qkv.size(), 0.0), p, o, g;
  const std::int64_t dk = pr.dk, hl = pr.heads * dk;
  for (std::int64_t h = 0; h < pr.heads; ++h) {
    for (std::int64_t i = 0; i < pr.len; ++i) {
      const float* mrow = mask != nullptr ? mask + (h * pr.len + i) * pr.len : nullptr;
      reference_row(pr, i, h, pr.len, causal, nullptr, p, o);
      const std::int64_t visible = causal ? i + 1 : pr.len;
      const float* doi = dout.data() + i * hl + h * dk;
      g.assign(static_cast<std::size_t>(visible), 0.0);
      double dot = 0.0;
      for (std::int64_t j = 0; j < visible; ++j) {
        double dp = 0.0;
        for (std::int64_t d = 0; d < dk; ++d) {
          dp += static_cast<double>(doi[d]) * pr.v(j)[h * 3 * dk + d];
        }
        g[static_cast<std::size_t>(j)] = mrow != nullptr ? dp * mrow[j] : dp;
        dot += p[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      }
      for (std::int64_t j = 0; j < visible; ++j) {
        const double pj = p[static_cast<std::size_t>(j)];
        const double ds = pr.scale * pj * (g[static_cast<std::size_t>(j)] - dot);
        const double pm = mrow != nullptr ? pj * mrow[j] : pj;
        double* dq = grad.data() + i * pr.row() + h * 3 * dk;
        double* dkj = grad.data() + j * pr.row() + h * 3 * dk + dk;
        for (std::int64_t d = 0; d < dk; ++d) {
          dq[d] += ds * pr.k(j)[h * 3 * dk + d];
          dkj[d] += ds * pr.q(i)[h * 3 * dk + d];
          dkj[dk + d] += pm * doi[d];
        }
      }
    }
  }
  return grad;
}

// Stated bound. dO is N(0, 1) like q, k and v. dq_i = Σ_j dS_ij k_j and
// dk_j = Σ_i dS_ij q_i with dS_ij = scale·P_ij·(dP_ij − Σ_j P·dP), and
// dv_j = Σ_i P_ij dO_i: up-to-len-term f32 sums of terms that each carry a
// dk-term dot's and P's few-ulp errors, so f32 accumulation bounds the
// error by ~(len + dk)·2⁻²⁴ ≈ 2·10⁻⁵ of the gradient's magnitude at len 300.
// The bound is 10⁻⁵ of the largest magnitude of the same gradient (dQ, dK or
// dV) over the problem. The largest error this seeded sweep measures is
// 2.1·10⁻⁶ (median 5.5·10⁻⁷): the bound sits ~5x above it, and far below
// what a lost mask, a wrong sign or a dropped key would cost (≥ 10⁻²).
constexpr double kGradBound = 1e-5;

TEST(AttentionConformance, BackwardMatchesDoubleReferenceAndIsThreadCountInvariant) {
  ThreadGuard guard;
  Rng rng(2305);
  for (const std::int64_t dk : {16, 40, 64}) {
    for (const std::int64_t len : {1, 2, 5, 13, 31, 64, 129, 255, 256, 257, 300}) {
      for (const bool causal : {true, false}) {
        for (const bool dropout : {false, true}) {
          SCOPED_TRACE(testing::Message() << "dk " << dk << " len " << len
                                          << (causal ? " causal" : " full")
                                          << (dropout ? " dropout" : ""));
          const Problem pr(3, len, dk, rng);
          std::vector<float> dout(static_cast<std::size_t>(len * pr.heads * dk));
          for (float& x : dout) x = static_cast<float>(rng.next_gaussian());
          const Dropout drop(pr.heads, 0.3f, rng);
          const std::vector<float> mask = drop.mask(len, len);
          const Dropout* d = dropout ? &drop : nullptr;
          const float* m = dropout ? mask.data() : nullptr;
          runtime::set_intra_op_threads(1);
          const std::vector<float> serial = run_backward(pr, dout, causal, d);
          const std::vector<double> want = reference_backward(pr, dout, causal, m);
          // Per gradient (q, k, v): the largest error against the largest
          // reference magnitude.
          double err[3] = {}, mag[3] = {};
          for (std::size_t e = 0; e < want.size(); ++e) {
            const auto which = e % static_cast<std::size_t>(3 * dk) /
                               static_cast<std::size_t>(dk);
            err[which] = std::max(err[which], std::fabs(serial[e] - want[e]));
            mag[which] = std::max(mag[which], std::fabs(want[e]));
          }
          for (int w = 0; w < 3; ++w) {
            EXPECT_LE(err[w], kGradBound * std::max(mag[w], 1e-30)) << "qkv"[w];
          }
          for (const std::size_t threads : {2u, 3u, 4u}) {
            runtime::set_intra_op_threads(threads);
            EXPECT_TRUE(bitwise_equal(run_backward(pr, dout, causal, d), serial))
                << threads;
          }
        }
      }
    }
  }
}

// Phase 2 sums each key's queries in ascending order. With q = 0 every
// score is 0, so P_ij = 1/len exactly (len a power of two) and each term of
// dv_j = Σ_i P_ij dO_i is exact: the sum's bits then depend only on the
// order of the additions, which the f32 reference makes ascending.
TEST(AttentionConformance, BackwardSumsQueriesInAscendingOrder) {
  Rng rng(2307);
  Problem pr(2, 64, 16, rng);
  for (std::int64_t i = 0; i < pr.len; ++i) {
    std::fill_n(pr.qkv.data() + i * pr.row(), pr.dk, 0.0f);
    std::fill_n(pr.qkv.data() + i * pr.row() + 3 * pr.dk, pr.dk, 0.0f);
  }
  std::vector<float> dout(static_cast<std::size_t>(pr.len * pr.heads * pr.dk));
  for (float& x : dout) {  // magnitudes over 2⁻¹⁰…2¹⁰, so the order shows
    x = std::ldexp(static_cast<float>(rng.next_gaussian()),
                   static_cast<int>(rng.next_below(21)) - 10);
  }
  const std::vector<float> got = run_backward(pr, dout, /*causal=*/false, nullptr);
  const float p = 1.0f / static_cast<float>(pr.len);
  for (std::int64_t j = 0; j < pr.len; ++j) {
    for (std::int64_t h = 0; h < pr.heads; ++h) {
      for (std::int64_t d = 0; d < pr.dk; ++d) {
        float want = 0.0f;
        for (std::int64_t i = 0; i < pr.len; ++i) {
          want += p * dout[static_cast<std::size_t>((i * pr.heads + h) * pr.dk + d)];
        }
        const auto dv = static_cast<std::size_t>(j * pr.row() + (3 * h + 2) * pr.dk + d);
        ASSERT_EQ(got[dv], want) << "key " << j << " head " << h << " lane " << d;
      }
    }
  }
}

TEST(AttentionConformance, BackwardThroughShuffledRowTablesMatchesContiguousRows) {
  ThreadGuard guard;
  Rng rng(2306);
  constexpr std::int64_t kHeads = 3;
  for (const std::int64_t dk : {16, 40}) {
    for (const std::int64_t len : {1, 37, 300}) {
      for (const bool dropout : {false, true}) {
        SCOPED_TRACE(testing::Message() << "dk " << dk << " len " << len
                                        << (dropout ? " dropout" : ""));
        const Problem pr(kHeads, len, dk, rng);
        std::vector<float> dout(static_cast<std::size_t>(len * kHeads * dk));
        for (float& x : dout) x = static_cast<float>(rng.next_gaussian());
        const Dropout drop(kHeads, 0.3f, rng);
        const Dropout* d = dropout ? &drop : nullptr;
        const ShuffledRows rows = shuffle(len, 4 * kHeads * dk + 3, rng);
        const std::vector<float> want = run_backward(pr, dout, true, d);
        for (const std::size_t threads : {1u, 4u}) {
          runtime::set_intra_op_threads(threads);
          EXPECT_TRUE(bitwise_equal(run_backward(pr, dout, true, d, &rows), want))
              << threads;
        }
      }
    }
  }
}

// Dropout against the explicit mask, bit for bit. At p = 0.5 a kept P_ij is
// scaled by exactly 2, so (2·P_ij)·v_j and P_ij·(2·v_j) are one real
// product, and a dropped key is a value row times 0: query i's context
// under the mask is that of a dropout-free call of that one query (at
// offset i, bitwise the full call's row) whose value rows are mask_ij·v_j.
// The backward reads the mask in dV = (P ⊙ mask)ᵀ·dO: with dO one-hot over
// a window of dk queries (dO_i = e_{i − w·dk} in every head), lane d of dv_j
// is P ⊙ mask of query w·dk + d, exactly. (dQ and dK, whose dS sums run in
// a row-block-dependent order, meet the explicit mask through the
// double-precision reference above.)
TEST(AttentionConformance, DropoutForwardAndBackwardMatchAnExplicitMaskBitwise) {
  ThreadGuard guard;
  Rng rng(2308);
  for (const std::int64_t dk : {16, 40}) {
    for (const std::int64_t len : {1, 37, 70}) {
      for (const bool causal : {true, false}) {
        SCOPED_TRACE(testing::Message() << "dk " << dk << " len " << len
                                        << (causal ? " causal" : " full"));
        const Problem pr(3, len, dk, rng);
        const std::int64_t hl = pr.heads * dk, row = pr.row();
        const Dropout drop(pr.heads, 0.5f, rng);
        const std::vector<float> mask = drop.mask(len, len);
        auto mask_at = [&](std::int64_t h, std::int64_t i, std::int64_t j) {
          return mask[static_cast<std::size_t>((h * len + i) * len + j)];
        };
        const AttentionShape sh{pr.heads, dk, 3 * dk, pr.scale, causal};

        // The explicit mask's context, one dropout-free query at a time. K
        // and the masked V rows are [heads][dk] per position.
        std::vector<float> want_ctx(static_cast<std::size_t>(len * hl));
        std::vector<float> km(static_cast<std::size_t>(len * hl));
        std::vector<float> vm(km.size());
        std::vector<const float*> krows, vrows;
        for (std::int64_t j = 0; j < len; ++j) {
          for (std::int64_t h = 0; h < pr.heads; ++h) {
            std::copy_n(pr.k(j) + h * 3 * dk, dk, km.data() + j * hl + h * dk);
          }
          krows.push_back(km.data() + j * hl);
          vrows.push_back(vm.data() + j * hl);
        }
        for (std::int64_t i = 0; i < len; ++i) {
          for (std::int64_t j = 0; j < len; ++j) {
            for (std::int64_t h = 0; h < pr.heads; ++h) {
              for (std::int64_t d = 0; d < dk; ++d) {
                vm[static_cast<std::size_t>(j * hl + h * dk + d)] =
                    mask_at(h, i, j) * pr.v(j)[h * 3 * dk + d];
              }
            }
          }
          const AttentionSeq seq{pr.q(i), row, 1, i, krows, vrows, dk,
                                 want_ctx.data() + i * hl, hl};
          attention({&seq, 1}, sh);
        }

        const std::vector<float> plain = run(pr, 0, len, causal).probs;
        for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
          runtime::set_intra_op_threads(threads);
          EXPECT_TRUE(bitwise_equal(run(pr, 0, len, causal, &drop).ctx, want_ctx))
              << "context, " << threads << " threads";
          for (std::int64_t w0 = 0; w0 < len; w0 += dk) {
            std::vector<float> eye(static_cast<std::size_t>(len * hl), 0.0f);
            for (std::int64_t i = w0; i < std::min(len, w0 + dk); ++i) {
              for (std::int64_t h = 0; h < pr.heads; ++h) {
                eye[static_cast<std::size_t>(i * hl + h * dk + i - w0)] = 1.0f;
              }
            }
            const std::vector<float> grads = run_backward(pr, eye, causal, &drop);
            for (std::int64_t i = w0; i < std::min(len, w0 + dk); ++i) {
              for (std::int64_t h = 0; h < pr.heads; ++h) {
                for (std::int64_t j = 0; j < len; ++j) {
                  const float pm =
                      plain[static_cast<std::size_t>((h * len + i) * len + j)] *
                      mask_at(h, i, j);
                  ASSERT_EQ(grads[static_cast<std::size_t>(j * row + h * 3 * dk +
                                                           2 * dk + i - w0)],
                            pm)
                      << "P ⊙ mask of query " << i << " key " << j << " head " << h
                      << ", " << threads << " threads";
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ptdp::tensor
