#pragma once

// Shared helpers for the experiment-reproduction binaries. Every bench
// prints the series the corresponding paper table/figure reports, plus the
// paper's value where the paper states one, so EXPERIMENTS.md can record
// paper-vs-measured side by side.

#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "ptdp/sim/simulator.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp::bench {

/// tensor::attention over contiguous [heads, s, dk] q, k, v of one sequence,
/// every query seeing every key: the fused operator the benches time
/// against its composition bmm_nt -> scale -> softmax_lastdim -> bmm.
/// Returns the context rows [s, heads·dk].
inline tensor::Tensor attention_heads(const tensor::Tensor& q,
                                      const tensor::Tensor& k,
                                      const tensor::Tensor& v) {
  const std::int64_t heads = q.dim(0), s = q.dim(1), dk = q.dim(2);
  std::vector<const float*> krows, vrows;
  for (std::int64_t j = 0; j < s; ++j) {
    krows.push_back(k.data().data() + j * dk);
    vrows.push_back(v.data().data() + j * dk);
  }
  tensor::Tensor out = tensor::Tensor::empty({s, heads * dk});
  const tensor::AttentionSeq seq{q.data().data(), dk, s, 0, krows, vrows,
                                 s * dk, out.data().data(), heads * dk};
  tensor::attention({&seq, 1}, {heads, dk, s * dk, 0.125f, /*causal=*/false});
  return out;
}

/// The unfused composition attention_heads() replaces: [heads, s, dk].
inline tensor::Tensor attention_composed(const tensor::Tensor& q,
                                         const tensor::Tensor& k,
                                         const tensor::Tensor& v) {
  return tensor::bmm(
      tensor::softmax_lastdim(tensor::scale(tensor::bmm_nt(q, k), 0.125f)), v);
}

/// tensor::attention_backward over the training layout of one sequence:
/// qkv rows [s, 3·heads·dk] (per row [heads][q|k|v][dk]), d context rows
/// [s, heads·dk] and, with dropout p, one stream per head (empty: none).
/// Returns the d qkv rows, laid out like qkv.
inline tensor::Tensor attention_backward_rows(const tensor::Tensor& qkv,
                                              const tensor::Tensor& dctx,
                                              std::span<const Rng> drop, float p,
                                              std::int64_t heads, bool causal) {
  const std::int64_t s = qkv.dim(0), row = qkv.dim(1), dk = row / (3 * heads);
  tensor::Tensor dqkv = tensor::Tensor::empty(qkv.shape());
  std::vector<const float*> k, v;
  std::vector<float*> dk_rows, dv_rows;
  for (std::int64_t j = 0; j < s; ++j) {
    k.push_back(qkv.data().data() + j * row + dk);
    v.push_back(qkv.data().data() + j * row + 2 * dk);
    dk_rows.push_back(dqkv.data().data() + j * row + dk);
    dv_rows.push_back(dqkv.data().data() + j * row + 2 * dk);
  }
  const tensor::AttentionGradSeq g{
      {qkv.data().data(), row, s, 0, k, v, 3 * dk, nullptr, 0, drop, p},
      dctx.data().data(), heads * dk, dqkv.data().data(), row, dk_rows, dv_rows};
  tensor::attention_backward(
      {&g, 1}, {heads, dk, 3 * dk, 1.0f / std::sqrt(static_cast<float>(dk)), causal});
  return dqkv;
}

/// The [heads, s, s] dropout mask the kernels draw from `drop` (one stream
/// per head) at p, drawn into a tensor for the node chain below.
inline tensor::Tensor prob_dropout_mask(std::span<const Rng> drop, std::int64_t s,
                                        float p) {
  tensor::Tensor mask =
      tensor::Tensor::empty({static_cast<std::int64_t>(drop.size()), s, s});
  float* m = mask.data().data();
  for (Rng rng : drop) {
    for (std::int64_t e = 0; e < s * s; ++e) {
      *m++ = rng.next_bernoulli(p) ? 0.0f : 1.0f / (1.0f - p);
    }
  }
  return mask;
}

/// The node chain attention_backward_rows() replaces, reading the P and
/// P ⊙ mask ([heads, s, s]; P itself without a mask) its forward saved:
/// split q/k/v and dctx into [heads, s, dk] copies -> bmm_nt / bmm_tn /
/// mul / softmax_backward·scale / bmm / bmm_tn -> merge into d qkv rows.
inline tensor::Tensor attention_backward_composed(
    const tensor::Tensor& qkv, const tensor::Tensor& dctx,
    const tensor::Tensor& probs, const tensor::Tensor& probs_dropped,
    const tensor::Tensor* mask, std::int64_t heads) {
  const std::int64_t s = qkv.dim(0), dk = qkv.dim(1) / (3 * heads);
  const tensor::Tensor split = qkv.view({s, heads, 3 * dk}).permute({1, 0, 2});
  const tensor::Tensor q = split.slice(-1, 0, dk);
  const tensor::Tensor k = split.slice(-1, dk, dk);
  const tensor::Tensor v = split.slice(-1, 2 * dk, dk);
  const tensor::Tensor dout = dctx.view({s, heads, dk}).permute({1, 0, 2});
  tensor::Tensor dp = tensor::bmm_nt(dout, v);
  const tensor::Tensor dv = tensor::bmm_tn(probs_dropped, dout);
  if (mask != nullptr) dp = tensor::mul(dp, *mask);
  tensor::Tensor ds = tensor::softmax_backward(probs, dp);
  tensor::scale_(ds, 1.0f / std::sqrt(static_cast<float>(dk)));
  return tensor::concat({tensor::bmm(ds, k), tensor::bmm_tn(ds, q), dv}, -1)
      .permute({1, 0, 2})
      .view({s, 3 * heads * dk});
}

inline void header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline model::GptConfig gpt(std::int64_t layers, std::int64_t hidden,
                            std::int64_t heads) {
  model::GptConfig c;
  c.num_layers = layers;
  c.hidden = hidden;
  c.heads = heads;
  c.vocab = 51200;
  c.seq = 2048;
  return c;
}

/// Sweep microbatch size and interleave factor for a fixed (p, t, d) the
/// way the paper tunes each configuration (§3.4 / §5.1), returning the
/// fastest non-OOM configuration.
inline core::ParallelConfig tune(const sim::ClusterSpec& hw,
                                 const model::GptConfig& m,
                                 core::ParallelConfig base, std::int64_t B,
                                 bool allow_interleave = true) {
  double best = 1e30;
  core::ParallelConfig best_cfg = base;
  bool found = false;
  for (std::int64_t b : {1, 2, 4, 8}) {
    if (B % (b * base.d) != 0) continue;
    for (int v : {1, 2, 3, 4}) {
      core::ParallelConfig cfg = base;
      cfg.b = b;
      cfg.v = v;
      if (v > 1) {
        if (!allow_interleave || base.p < 2) continue;
        if (cfg.microbatches(B) % base.p != 0) continue;
        if (m.num_layers % (base.p * v) != 0) continue;
        cfg.schedule = pipeline::ScheduleType::kInterleaved;
        cfg.scatter_gather = cfg.t > 1;
      } else {
        if (m.num_layers % base.p != 0) continue;
        cfg.schedule = pipeline::ScheduleType::kOneFOneB;
      }
      const auto res = sim::simulate_iteration(hw, m, cfg, B);
      if (!res.oom && res.iteration_seconds < best) {
        best = res.iteration_seconds;
        best_cfg = cfg;
        found = true;
      }
    }
  }
  if (!found) best_cfg.b = 0;  // sentinel: nothing fit
  return best_cfg;
}

}  // namespace ptdp::bench
