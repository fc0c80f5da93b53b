// The mixed-precision plane end to end (DESIGN.md §13): a per-dtype
// tolerance table applied to GEMM / attention / 2-step training-loss
// comparisons, bitwise determinism of bf16-input GEMMs across thread
// counts and pool reuse (the empty + beta=0 fast paths), the fp32
// master-weight optimizer on real bf16 storage, the bf16 grad-reduction
// wire mode, the (p,t,d)=(2,2,2) engine with halved p2p boundary bytes,
// and a resumed run continuing the loss-scale schedule.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "layer_reference.hpp"
#include "ptdp/comm/grad_reducer.hpp"
#include "ptdp/core/engine.hpp"
#include "ptdp/data/dataset.hpp"
#include "ptdp/dist/world.hpp"
#include "ptdp/model/attention.hpp"
#include "ptdp/model/head.hpp"
#include "ptdp/model/linear.hpp"
#include "ptdp/optim/optimizer.hpp"
#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/ops.hpp"

namespace ptdp {
namespace {

using model::GptConfig;
using tensor::DType;
using tensor::Tensor;

// ---- per-dtype tolerance table ----------------------------------------------
//
// f32 kernels are held to near-bitwise agreement with a naive reference
// (blocked accumulation reorders sums, nothing else). bf16 STORAGE only
// rounds the inputs — accumulation stays f32 — so a bf16 run is the exact
// f32 function of once-rounded operands: element-level comparisons against
// the full-precision run see one rounding step per operand, rtol ~ 2^-8
// (half-ulp 2^-9 per input, two inputs). Composite stacks (attention, the
// e2e loss) compound that per layer; their rows are correspondingly wider.
struct Tol {
  float rtol;
  float atol;
};

constexpr Tol kGemmTol[] = {
    /*kF32*/ {1e-5f, 1e-6f},
    /*kBf16*/ {1.0f / 256.0f, 1e-4f},
};
constexpr Tol kAttentionTol[] = {
    /*kF32*/ {1e-5f, 1e-6f},
    /*kBf16*/ {1.0f / 16.0f, 1e-2f},
};
// |loss_bf16 - loss_f32| bound for a 2-step run of the test-size model —
// the figure DESIGN.md §13 documents for bf16 training parity.
constexpr float kE2eLossTol = 0.05f;

Tol gemm_tol(DType d) { return kGemmTol[static_cast<int>(d)]; }
Tol attention_tol(DType d) { return kAttentionTol[static_cast<int>(d)]; }

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  auto pa = a.data();
  auto pb = b.data();
  auto pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t j = 0; j < n; ++j) {
        pc[static_cast<std::size_t>(i * n + j)] +=
            pa[static_cast<std::size_t>(i * k + p)] *
            pb[static_cast<std::size_t>(p * n + j)];
      }
    }
  }
  return c;
}

/// Restore the requested intra-op width when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(runtime::intra_op_threads()) {}
  ~ThreadGuard() { runtime::set_intra_op_threads(saved_); }

 private:
  std::size_t saved_;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  const auto ba = a.raw_bytes();
  const auto bb = b.raw_bytes();
  return a.dtype() == b.dtype() && a.same_shape(b) &&
         std::memcmp(ba.data(), bb.data(), ba.size()) == 0;
}

// ---- GEMM dtype sweep -------------------------------------------------------

TEST(MixedPrecisionGemm, AllDtypeCombosMatchWidenedReference) {
  // Every (A dtype, B dtype) combo must equal the f32 kernel applied to the
  // widened operands within the f32 row of the table — bf16 operands are
  // rounded exactly once (at packing) and accumulated in f32, so the only
  // remaining divergence from the naive loop is blocked summation order.
  Rng rng(42);
  const std::int64_t m = 33, k = 47, n = 29;
  const Tensor a32 = Tensor::randn({m, k}, rng);
  const Tensor b32 = Tensor::randn({k, n}, rng);
  const Tol f32_tol = gemm_tol(DType::kF32);
  for (DType da : {DType::kF32, DType::kBf16}) {
    for (DType db : {DType::kF32, DType::kBf16}) {
      const Tensor a = a32.to(da);
      const Tensor b = b32.to(db);
      const Tensor c = tensor::matmul(a, b);
      EXPECT_EQ(c.dtype(), DType::kF32);
      const Tensor ref = naive_matmul(a.to(DType::kF32), b.to(DType::kF32));
      EXPECT_TRUE(tensor::allclose(c, ref, f32_tol.rtol, f32_tol.atol))
          << tensor::dtype_name(da) << "x" << tensor::dtype_name(db)
          << " gap " << tensor::max_abs_diff(c, ref);
      // And the bf16 row of the table bounds the gap to the full-precision
      // product — the number training actually experiences.
      const Tensor full = naive_matmul(a32, b32);
      const Tol tol = (da == DType::kBf16 || db == DType::kBf16)
                          ? gemm_tol(DType::kBf16)
                          : f32_tol;
      EXPECT_TRUE(tensor::allclose(c, full, tol.rtol, tol.atol * k))
          << tensor::dtype_name(da) << "x" << tensor::dtype_name(db)
          << " gap to f32 " << tensor::max_abs_diff(c, full);
    }
  }
  // The transposed variants take bf16 operands through the same packing.
  const Tensor bt = b32.transpose(0, 1).to(DType::kBf16);
  EXPECT_TRUE(tensor::allclose(
      tensor::matmul_nt(a32, bt),
      naive_matmul(a32, bt.to(DType::kF32).transpose(0, 1)), f32_tol.rtol,
      f32_tol.atol));
  const Tensor at = a32.transpose(0, 1).to(DType::kBf16);
  EXPECT_TRUE(tensor::allclose(
      tensor::matmul_tn(at, b32),
      naive_matmul(at.to(DType::kF32).transpose(0, 1), b32), f32_tol.rtol,
      f32_tol.atol));
}

TEST(MixedPrecisionGemm, Bf16BitwiseDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(7);
  const Tensor a = Tensor::randn({96, 64}, rng);
  const Tensor b = Tensor::randn({64, 48}, rng).to(DType::kBf16);
  const Tensor a16 = a.to(DType::kBf16);
  runtime::set_intra_op_threads(1);
  const Tensor c1 = tensor::matmul(a, b);
  const Tensor c1_full16 = tensor::matmul(a16, b);
  for (std::size_t threads : {2u, 4u}) {
    runtime::set_intra_op_threads(threads);
    EXPECT_TRUE(same_bits(tensor::matmul(a, b), c1)) << threads << " threads";
    EXPECT_TRUE(same_bits(tensor::matmul(a16, b), c1_full16))
        << threads << " threads";
  }
}

TEST(MixedPrecisionGemm, Beta0FastPathIgnoresStalePoolBytes) {
  // Regression for the satellite: matmul outputs come from Tensor::empty
  // and the first k-panel must OVERWRITE (beta=0), never accumulate into,
  // whatever the pool left behind — including NaN bits, which would poison
  // any read-modify-write.
  Rng rng(19);
  const Tensor a = Tensor::randn({31, 17}, rng);
  const Tensor b = Tensor::randn({17, 23}, rng).to(DType::kBf16);
  const Tensor clean = tensor::matmul(a, b);
  {
    Tensor junk = Tensor::empty({31 * 23 + 64});
    junk.fill(std::numeric_limits<float>::quiet_NaN());
  }  // back to the pool with NaN payloads
  const Tensor reused = tensor::matmul(a, b);
  EXPECT_TRUE(same_bits(reused, clean));
  for (float v : reused.data()) EXPECT_TRUE(std::isfinite(v));
}

// ---- the model rule on linear layers and the head ---------------------------

// One forward + backward of a fresh linear (zero grads), checked against the
// products the rule names: a bf16 layer narrows dy once, exactly as it
// narrows its input, and runs dW = xᵀ·dy and dx = dy·Wᵀ on the narrowed
// operands; the bias grad reads f32 dy. An f32 layer runs the f32 products.
template <typename Linear>
void expect_backward_follows_rule(Linear& lin, const Tensor& x, const Tensor& dy,
                                  DType dtype) {
  model::LinearCache cache;
  lin.forward(x, cache);
  const Tensor dx = lin.backward(dy, cache);
  const Tensor x_gemm = dtype == DType::kBf16 ? x.to(DType::kBf16) : x;
  const Tensor dy_gemm = dtype == DType::kBf16 ? dy.to(DType::kBf16) : dy;
  EXPECT_TRUE(same_bits(lin.weight().grad, tensor::matmul_tn(x_gemm, dy_gemm)))
      << tensor::dtype_name(dtype) << " dW";
  EXPECT_TRUE(same_bits(dx, tensor::matmul_nt(dy_gemm, lin.weight().value)))
      << tensor::dtype_name(dtype) << " dx";
  EXPECT_TRUE(same_bits(lin.bias().grad, tensor::bias_grad(dy)))
      << tensor::dtype_name(dtype) << " dbias";
}

TEST(MixedPrecisionLinear, BackwardGemmsRunOnDyNarrowedLikeTheInput) {
  // 300 rows: the weight-grad product spans two 256-deep k panels.
  const std::int64_t rows = 300, in = 40, out = 24;
  Rng rng(31);
  const Tensor x = Tensor::randn({rows, in}, rng);
  const Tensor dy = Tensor::randn({rows, out}, rng);
  const dist::Comm solo = dist::Comm::solo();
  for (DType dtype : {DType::kF32, DType::kBf16}) {
    model::ColumnParallelLinear col("col", in, out, solo, 0.02f, 42,
                                    /*skip_bias_add=*/false, dtype);
    expect_backward_follows_rule(col, x, dy, dtype);
    model::RowParallelLinear row("row", in, out, solo, 0.02f, 42,
                                 /*skip_bias_add=*/false, dtype);
    expect_backward_follows_rule(row, x, dy, dtype);
  }
}

TEST(MixedPrecisionHead, Bf16ModelRunsHeadGemmsOnNarrowedOperands) {
  // Both heads hold the same bf16-valued f32 word, as the optimizer keeps a
  // bf16 model's working values. The bf16 head narrows the LN output, the
  // word and dlogits; its loss and grads stay within the bf16 GEMM row of
  // the table of the f32 head's.
  GptConfig c;
  c.num_layers = 1;
  c.hidden = 32;
  c.heads = 4;
  c.vocab = 64;
  c.seq = 8;
  c.seed = 77;
  GptConfig c16 = c;
  c16.dtype = DType::kBf16;
  const dist::Comm solo = dist::Comm::solo();
  model::GptHead head32(c, solo, nullptr);
  model::GptHead head16(c16, solo, nullptr);
  const Tensor word = head32.word().value.to(DType::kBf16).to(DType::kF32);
  head32.word().value.copy_from(word);
  head16.word().value.copy_from(word);

  Rng rng(13);
  const std::int64_t b = 2, n = c.seq * b;
  const Tensor x = Tensor::randn({c.seq, b, c.hidden}, rng);
  std::vector<std::int32_t> targets(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    targets[static_cast<std::size_t>(i)] = static_cast<std::int32_t>((i * 37 + 5) % c.vocab);
  }
  model::HeadCache cache32, cache16;
  const float loss32 = head32.forward(x, targets, cache32);
  const float loss16 = head16.forward(x, targets, cache16);
  EXPECT_EQ(cache32.ln.y.dtype(), DType::kF32);
  EXPECT_EQ(cache16.ln.y.dtype(), DType::kBf16);
  EXPECT_NEAR(loss16, loss32, gemm_tol(DType::kBf16).rtol * std::fabs(loss32));

  // Inference logits are the same bf16 x bf16 product.
  const Tensor ln_y =
      tensor::layernorm(x.view({n, c.hidden}), Tensor::full({c.hidden}, 1.0f),
                        Tensor({c.hidden}))
          .y;
  EXPECT_TRUE(same_bits(head16.full_logits(x),
                        tensor::matmul_nt(ln_y.to(DType::kBf16), word.to(DType::kBf16))));

  const Tensor dx32 = head32.backward(1.0f, cache32);
  const Tensor dx16 = head16.backward(1.0f, cache16);
  const Tol tol = gemm_tol(DType::kBf16);
  EXPECT_TRUE(tensor::allclose(dx16, dx32, tol.rtol, tol.atol))
      << "dx gap " << tensor::max_abs_diff(dx16, dx32);
  EXPECT_TRUE(tensor::allclose(head16.word().grad, head32.word().grad, tol.rtol,
                               tol.atol))
      << "dW gap " << tensor::max_abs_diff(head16.word().grad, head32.word().grad);
}

// ---- attention under bf16 weights -------------------------------------------

TEST(MixedPrecisionAttention, ForwardMatchesF32WithinTableTolerance) {
  // Same seed → the bf16 attention's weights are exactly the rounded f32
  // weights; the forward gap is bounded by the attention row of the table.
  GptConfig c;
  c.num_layers = 1;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 8;
  c.dropout = 0.0f;
  c.seed = 321;
  dist::World world(1);
  world.run([&](dist::Comm& comm) {
    GptConfig c16 = c;
    c16.dtype = DType::kBf16;
    model::ParallelAttention attn32(c, /*global_layer_idx=*/0, comm);
    model::ParallelAttention attn16(c16, /*global_layer_idx=*/0, comm);
    const auto bind32 = reference::bind_attention(attn32, c, 0);
    const auto bind16 = reference::bind_attention(attn16, c16, 0);
    Rng rng(5);
    const Tensor x = Tensor::randn({c.seq, 2, c.hidden}, rng);
    reference::AttentionCache cache32, cache16;
    const Tensor y32 = reference::attention_forward(bind32, x, cache32, /*mb_tag=*/0);
    const Tensor y16 = reference::attention_forward(bind16, x, cache16, /*mb_tag=*/0);
    const Tol tol = attention_tol(DType::kBf16);
    EXPECT_TRUE(tensor::allclose(y16, y32, tol.rtol, tol.atol))
        << "gap " << tensor::max_abs_diff(y16, y32);
    // The backward produces f32 grads regardless of weight dtype.
    const Tensor dx16 = reference::attention_backward(bind16, y32, cache16);
    EXPECT_EQ(dx16.dtype(), DType::kF32);
  });
}

// ---- optimizer on real bf16 storage -----------------------------------------

TEST(MixedPrecisionOptim, MasterAccumulatesBelowBf16Resolution) {
  // A per-step update of 1e-4 is far below bf16's resolution at 1.0
  // (2^-8 ≈ 3.9e-3): without the fp32 master every step would round away
  // and the weight would never move. With it, the master drifts each step
  // and the bf16 working weight snaps down once the drift crosses half an
  // ulp.
  model::Param p;
  p.name = "w";
  p.value = Tensor::full({4}, 1.0f).to(DType::kBf16);
  p.grad = Tensor::full({4}, 1e-3f);
  optim::LossScalerOptions so;
  so.initial_scale = 1.0f;
  so.growth_interval = 1'000'000;  // keep the scale fixed for the test
  optim::Sgd opt(model::ParamRefs{&p}, optim::SgdOptions{.lr = 0.1f}, so);

  opt.step();
  EXPECT_EQ(p.value.dtype(), DType::kBf16);
  EXPECT_EQ(p.value.to(DType::kF32).data()[0], 1.0f)
      << "one sub-ulp step must not move the bf16 working weight";
  for (int s = 1; s < 40; ++s) {
    p.grad.fill(1e-3f);
    opt.step();
  }
  // Master: 1.0 - 40 * 1e-4 = 0.996, carried exactly in f32...
  auto state = opt.state_tensors();
  bool saw_master = false;
  for (auto& [name, t] : state) {
    if (name == "w.fp32_master") {
      saw_master = true;
      EXPECT_NEAR(t->data()[0], 0.996f, 1e-5f);
    }
  }
  EXPECT_TRUE(saw_master);
  // ...and the working weight followed it down to the nearest bf16.
  EXPECT_EQ(p.value.to(DType::kF32).data()[0], optim::bf16_round(0.996f));
  EXPECT_LT(p.value.to(DType::kF32).data()[0], 1.0f);
  EXPECT_EQ(opt.skipped_steps(), 0);
}

TEST(MixedPrecisionOptim, OverflowSkipsStepAndLeavesBf16ValueUntouched) {
  model::Param p;
  p.name = "w";
  p.value = Tensor::full({3}, 2.0f).to(DType::kBf16);
  p.grad = Tensor::full({3}, std::numeric_limits<float>::infinity());
  optim::LossScalerOptions so;
  so.initial_scale = 8.0f;
  optim::Sgd opt(model::ParamRefs{&p}, optim::SgdOptions{.lr = 0.1f}, so);
  opt.step();
  EXPECT_EQ(opt.skipped_steps(), 1);
  EXPECT_EQ(opt.loss_scale(), 4.0f);  // backed off
  EXPECT_EQ(p.value.dtype(), DType::kBf16);
  EXPECT_EQ(p.value.to(DType::kF32).data()[0], 2.0f);
}

// ---- bf16 grad-reduction wire mode ------------------------------------------

TEST(MixedPrecisionComm, GradReducerBf16ModeIsDeterministicFixedOrderMean) {
  constexpr int d = 2;
  constexpr std::int64_t n = 37;
  std::vector<std::vector<float>> results(d);
  dist::World world(d);
  world.run([&](dist::Comm& comm) {
    model::Param p;
    p.name = "w";
    p.value = Tensor::zeros({n});
    p.grad = Tensor::empty({n});
    for (std::int64_t j = 0; j < n; ++j) {
      // Values with sub-bf16 detail, distinct per rank.
      p.grad.data()[static_cast<std::size_t>(j)] =
          0.1f * static_cast<float>(j + 1) + 0.003f * static_cast<float>(comm.rank());
    }
    comm::GradReducerOptions opts;
    opts.overlap = false;
    opts.comm_dtype = DType::kBf16;
    comm::GradReducer reducer({model::ParamRefs{&p}}, comm, opts);
    reducer.finish();
    // Each rank holds the mean of its owned range; gather the rest.
    Tensor* grads[] = {&p.grad};
    reducer.all_gather(grads, DType::kF32);
    auto g = p.grad.data();
    results[static_cast<std::size_t>(comm.rank())].assign(g.begin(), g.end());
  });
  // Expected: each rank's contribution rounded to bf16 on the wire, then
  // summed in fixed rank order in f32 and averaged — identical everywhere.
  for (std::int64_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (int r = 0; r < d; ++r) {
      acc += optim::bf16_round(0.1f * static_cast<float>(j + 1) +
                               0.003f * static_cast<float>(r));
    }
    const float expect = acc * (1.0f / static_cast<float>(d));
    for (int r = 0; r < d; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)],
                expect)
          << "rank " << r << " elem " << j;
    }
  }
}

// ---- end-to-end engine ------------------------------------------------------

GptConfig engine_config(std::int64_t layers) {
  GptConfig c;
  c.num_layers = layers;
  c.hidden = 16;
  c.heads = 4;
  c.vocab = 32;
  c.seq = 6;
  c.dropout = 0.0f;
  c.seed = 2024;
  return c;
}

struct DataSetup {
  data::SyntheticCorpus corpus;
  data::TokenDataset dataset;
  DataSetup(const GptConfig& c)
      : corpus(c.vocab, 55), dataset(corpus.generate(4000), c.seq) {}
};

// Serial loss trajectory at the given storage dtype (same data order).
std::vector<float> serial_losses(GptConfig c, DType dtype, int steps) {
  c.dtype = dtype;
  DataSetup ds(c);
  std::vector<float> losses;
  dist::World world(1);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel = core::ParallelConfig{};
    options.parallel.b = 2;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.optimizer = core::EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.1f;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, 4, 2, 1, 0, /*seed=*/88);
    for (int s = 0; s < steps; ++s) {
      losses.push_back(engine.train_step(loader.next_batch(s)));
    }
    // bf16 models train with masters and a live scaler.
    if (dtype == DType::kBf16) {
      EXPECT_GE(engine.last_stats().loss_scale, 1.0f);
      EXPECT_EQ(engine.last_stats().overflow_steps, 0);
    }
  });
  return losses;
}

TEST(MixedPrecisionEngine, TwoStepLossMatchesF32WithinDocumentedTolerance) {
  const GptConfig c = engine_config(2);
  const auto f32 = serial_losses(c, DType::kF32, 2);
  const auto bf16 = serial_losses(c, DType::kBf16, 2);
  ASSERT_EQ(f32.size(), bf16.size());
  for (std::size_t s = 0; s < f32.size(); ++s) {
    EXPECT_NEAR(bf16[s], f32[s], kE2eLossTol) << "step " << s;
    EXPECT_TRUE(std::isfinite(bf16[s]));
  }
}

TEST(MixedPrecisionEngine, ResumeContinuesLossScaleSchedule) {
  // growth_interval = 1 doubles the scale every clean step, so a resume
  // that restarted the scaler would show at once. Losses alone cannot
  // catch it: a power-of-two scale cancels exactly in the unscale.
  const GptConfig c = [] {
    GptConfig g = engine_config(2);
    g.dtype = DType::kBf16;
    return g;
  }();
  DataSetup ds(c);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ptdp_scaler_resume_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto options = [&] {
    core::EngineOptions o;
    o.model = c;
    o.parallel.b = 2;
    o.parallel.recompute = false;
    o.global_batch = 4;
    o.optimizer = core::EngineOptions::Opt::kAdam;
    o.scaler.growth_interval = 1;
    return o;
  };
  core::StepStats continued, resumed;
  dist::World world(1);
  world.run([&](dist::Comm& comm) {
    core::PtdpEngine engine(comm, options());
    data::ShardedLoader loader(ds.dataset, 4, 2, 1, 0, /*seed=*/88);
    for (int s = 0; s < 3; ++s) engine.train_step(loader.next_batch(s));
    engine.save_checkpoint(dir.string(), /*step=*/3);
    engine.train_step(loader.next_batch(3));
    continued = engine.last_stats();
  });
  world.run([&](dist::Comm& comm) {
    core::PtdpEngine engine(comm, options());
    EXPECT_EQ(engine.load_checkpoint(dir.string()), 3u);
    data::ShardedLoader loader(ds.dataset, 4, 2, 1, 0, /*seed=*/88);
    engine.train_step(loader.next_batch(3));
    resumed = engine.last_stats();
  });
  std::filesystem::remove_all(dir);
  EXPECT_EQ(resumed.loss, continued.loss);
  EXPECT_EQ(continued.loss_scale, 1024.0f * 16.0f);  // four clean steps
  EXPECT_EQ(resumed.loss_scale, continued.loss_scale);
  EXPECT_EQ(resumed.overflow_steps, continued.overflow_steps);
}

TEST(MixedPrecisionEngine, Bf16RunToRunLossesAreBitwiseIdentical) {
  const GptConfig c = engine_config(2);
  const auto run1 = serial_losses(c, DType::kBf16, 2);
  const auto run2 = serial_losses(c, DType::kBf16, 2);
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t s = 0; s < run1.size(); ++s) {
    EXPECT_EQ(run1[s], run2[s]) << "step " << s;  // exact, not NEAR
  }
}

// One (2,2,2) step at the given model/wire dtypes; returns world-summed
// pipeline boundary traffic and checks the loss is sane on every rank.
struct P2pTraffic {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

P2pTraffic run_222(const GptConfig& base, DType dtype, DType grad_comm) {
  constexpr int p = 2, t = 2, d = 2;
  GptConfig c = base;
  c.dtype = dtype;
  DataSetup ds(c);
  std::vector<std::uint64_t> bytes(p * t * d, 0);
  std::vector<std::uint64_t> messages(p * t * d, 0);
  dist::World world(p * t * d);
  world.run([&](dist::Comm& comm) {
    core::EngineOptions options;
    options.model = c;
    options.parallel.p = p;
    options.parallel.t = t;
    options.parallel.d = d;
    options.parallel.b = 1;
    options.parallel.recompute = false;
    options.global_batch = 4;
    options.optimizer = core::EngineOptions::Opt::kSgd;
    options.sgd.lr = 0.1f;
    options.grad_comm_dtype = grad_comm;
    core::PtdpEngine engine(comm, options);
    data::ShardedLoader loader(ds.dataset, 4, 1, d,
                               engine.groups().coord().data, /*seed=*/88);
    const float loss = engine.train_step(loader.next_batch(0));
    EXPECT_TRUE(std::isfinite(loss)) << "rank " << comm.rank();
    bytes[static_cast<std::size_t>(comm.rank())] =
        engine.executor().comm_stats().p2p_bytes_sent;
    messages[static_cast<std::size_t>(comm.rank())] =
        engine.executor().comm_stats().p2p_messages;
  });
  P2pTraffic out;
  for (auto b : bytes) out.bytes += b;
  for (auto m : messages) out.messages += m;
  return out;
}

TEST(MixedPrecisionEngine, Bf16BoundariesHalveP2pBytesAt222) {
  const GptConfig c = engine_config(2);
  const P2pTraffic f32 = run_222(c, DType::kF32, DType::kF32);
  const P2pTraffic bf16 = run_222(c, DType::kBf16, DType::kBf16);
  ASSERT_GT(f32.bytes, 0u);
  // Same schedule → same message count; bf16 boundaries carry exactly half
  // the bytes of the same activations in f32.
  EXPECT_EQ(bf16.messages, f32.messages);
  EXPECT_EQ(bf16.bytes * 2, f32.bytes);
}

}  // namespace
}  // namespace ptdp
