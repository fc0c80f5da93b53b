// §5.8: operator fusion impact. The paper reports +19% end-to-end for
// GPT-3 175B (113 -> 135 TFLOP/s per GPU) and +11% for the 530B model
// (133 -> 148). We run the same end-to-end configurations with the fused
// kernels toggled in the cost model, measure the *real* CPU fused kernels
// (bias+GeLU, bias+dropout+add, and attention with scale+softmax between its
// two products) against their unfused compositions, and run a whole
// transformer block
// twice — unfused (planned graph, fusion pass off) and planner-fused (the
// plan the layer executes) — writing the comparison to
// BENCH_graph_fusion.json.

#include "bench_util.hpp"

#include "ptdp/dist/comm.hpp"
#include "ptdp/graph/builder.hpp"
#include "ptdp/graph/executor.hpp"
#include "ptdp/model/transformer_layer.hpp"
#include "ptdp/runtime/stopwatch.hpp"
#include "ptdp/tensor/ops.hpp"

using namespace ptdp;

namespace {

void end_to_end(const sim::ClusterSpec& hw, const char* name,
                const model::GptConfig& m, int t, int p, std::int64_t n,
                std::int64_t B, double paper_unfused, double paper_fused) {
  core::ParallelConfig cfg;
  cfg.t = t;
  cfg.p = p;
  cfg.d = static_cast<int>(n / (static_cast<std::int64_t>(t) * p));
  cfg.b = 1;
  const auto unfused = sim::simulate_iteration(hw, m, cfg, B, {false, false});
  const auto fused = sim::simulate_iteration(hw, m, cfg, B, {true, false});
  std::printf("%-12s: %4.0f -> %4.0f TF/GPU (%+.0f%%)   paper: %3.0f -> %3.0f "
              "(%+.0f%%)\n",
              name, unfused.per_gpu_flops / 1e12, fused.per_gpu_flops / 1e12,
              100.0 * (fused.per_gpu_flops / unfused.per_gpu_flops - 1.0),
              paper_unfused, paper_fused,
              100.0 * (paper_fused / paper_unfused - 1.0));
}

template <typename F>
double time_ms(F&& fn, int reps = 20) {
  fn();  // warm up
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) fn();
  return sw.elapsed_ms() / reps;
}

}  // namespace

int main() {
  bench::header("Section 5.8", "Fused operators");
  const auto hw = sim::ClusterSpec::selene();

  std::printf("End-to-end (cost model):\n");
  end_to_end(hw, "GPT-3 175B", bench::gpt(96, 12288, 96), 8, 12, 384, 1536, 113,
             135);
  end_to_end(hw, "GPT 530B", bench::gpt(105, 20480, 128), 8, 35, 2240, 2240, 133,
             148);

  std::printf("\nReal CPU kernels (this library's fused implementations):\n");
  Rng rng(7);
  const std::int64_t rows = 512, cols = 1024;
  tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng);
  tensor::Tensor bias = tensor::Tensor::randn({cols}, rng);
  tensor::Tensor resid = tensor::Tensor::randn({rows, cols}, rng);

  const double unfused_gelu =
      time_ms([&] { auto y = tensor::gelu(tensor::add_bias(x, bias)); });
  const double fused_gelu =
      time_ms([&] { auto y = tensor::fused_bias_gelu(x, bias); });
  std::printf("  bias+GeLU        : %6.3f ms -> %6.3f ms (%.2fx)\n", unfused_gelu,
              fused_gelu, unfused_gelu / fused_gelu);

  const Rng r2(9);
  const double unfused_bda = time_ms([&] {
    auto y = tensor::dropout(tensor::add_bias(x, bias), 0.1f, r2);
    tensor::add_(y, resid);
  });
  const double fused_bda = time_ms(
      [&] { auto y = tensor::fused_bias_dropout_add(x, bias, resid, 0.1f, r2); });
  std::printf("  bias+dropout+add : %6.3f ms -> %6.3f ms (%.2fx)\n", unfused_bda,
              fused_bda, unfused_bda / fused_bda);

  // Attention core, 16 heads x 128 positions x dk 64: the composed
  // bmm_nt -> scale -> softmax -> bmm against the one fused kernel.
  const tensor::Tensor q = tensor::Tensor::randn({16, 128, 64}, rng);
  const tensor::Tensor k = tensor::Tensor::randn({16, 128, 64}, rng);
  const tensor::Tensor v = tensor::Tensor::randn({16, 128, 64}, rng);
  const double composed_attn =
      time_ms([&] { auto y = bench::attention_composed(q, k, v); });
  const double fused_attn =
      time_ms([&] { auto y = bench::attention_heads(q, k, v); });
  std::printf("  attention        : %6.3f ms -> %6.3f ms (%.2fx)\n",
              composed_attn, fused_attn, composed_attn / fused_attn);

  // ---- block benchmark: unfused plan vs planner-fused plan ----
  model::GptConfig bc;
  bc.num_layers = 1;
  bc.hidden = 512;
  bc.heads = 8;
  bc.vocab = 1024;
  bc.seq = 256;
  bc.dropout = 0.1f;
  bc.seed = 11;
  const std::int64_t bb = 4;
  dist::Comm solo = dist::Comm::solo();
  model::TransformerLayer layer(bc, 0, solo);
  Rng brng(bc.seed, substream(1, 2));
  const tensor::Tensor bx = tensor::Tensor::randn({bc.seq, bb, bc.hidden}, brng);
  const tensor::Tensor bdy = tensor::Tensor::randn({bc.seq, bb, bc.hidden}, brng);

  graph::PlannerOptions unfused_opts;
  unfused_opts.fuse = false;
  const graph::LayerPlan unfused_plan =
      graph::build_layer_plan(bc, /*with_dropout=*/true, unfused_opts);
  const graph::ExecContext ctx{bc.seq, bb, /*mb_tag=*/1, bc.dropout};

  const int reps = 10;
  const double ms_unfused = time_ms(
      [&] {
        graph::Frame frame;
        frame.begin(unfused_plan, bx, ctx.mb_tag);
        (void)graph::SequentialExecutor::run_forward(unfused_plan, frame,
                                                     layer.binding(), ctx);
        (void)graph::SequentialExecutor::run_backward(unfused_plan, frame,
                                                      layer.binding(), ctx, bdy);
      },
      reps);
  const double ms_planner = time_ms(
      [&] {
        model::LayerCache cache;
        (void)layer.forward(bx, cache, 1);
        (void)layer.backward(bdy, cache);
      },
      reps);

  std::printf("\nTransformer block fwd+bwd (s=%lld b=%lld h=%lld, dropout on):\n",
              static_cast<long long>(bc.seq), static_cast<long long>(bb),
              static_cast<long long>(bc.hidden));
  std::printf("  unfused plan     : %7.3f ms\n", ms_unfused);
  std::printf("  planner-fused    : %7.3f ms (%.2fx vs unfused)\n", ms_planner,
              ms_unfused / ms_planner);

  std::FILE* f = std::fopen("BENCH_graph_fusion.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_graph_fusion.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sec58_fused_operators\",\n");
  std::fprintf(f,
               "  \"config\": {\"hidden\": %lld, \"heads\": %lld, \"seq\": %lld, "
               "\"b\": %lld, \"dropout\": 0.1, \"reps\": %d},\n",
               static_cast<long long>(bc.hidden), static_cast<long long>(bc.heads),
               static_cast<long long>(bc.seq), static_cast<long long>(bb), reps);
  std::fprintf(f, "  \"block_fwd_bwd_ms\": {\n");
  std::fprintf(f, "    \"unfused\": %.4f,\n", ms_unfused);
  std::fprintf(f, "    \"planner_fused\": %.4f\n  },\n", ms_planner);
  std::fprintf(f, "  \"speedup\": {\"planner_vs_unfused\": %.4f},\n",
               ms_unfused / ms_planner);
  std::fprintf(f, "  \"kernel_ms\": {\"bias_gelu\": [%.4f, %.4f], "
                  "\"bias_dropout_add\": [%.4f, %.4f], "
                  "\"attention\": [%.4f, %.4f]}\n}\n",
               unfused_gelu, fused_gelu, unfused_bda, fused_bda, composed_attn,
               fused_attn);
  std::fclose(f);
  std::printf("wrote BENCH_graph_fusion.json\n");
  return 0;
}
