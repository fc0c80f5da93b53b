#include "ptdp/graph/passes.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "ptdp/runtime/check.hpp"

namespace ptdp::graph {

namespace {

/// Use counts per value across both graphs (params/modules not counted —
/// they live outside the value table).
std::vector<int> use_counts(const LayerPlan& plan) {
  std::vector<int> uses(plan.values.size(), 0);
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    for (ValueId vid : plan.unified(u).in) ++uses[static_cast<std::size_t>(vid)];
  }
  return uses;
}

bool fusable_temp(const LayerPlan& plan, const std::vector<int>& uses,
                  ValueId vid) {
  const Value& v = plan.values[static_cast<std::size_t>(vid)];
  return !v.pinned && uses[static_cast<std::size_t>(vid)] == 1;
}

/// Replaces seg[first..first+count) with `repl`.
void splice(std::vector<Node>& seg, std::size_t first, std::size_t count,
            Node repl) {
  seg.erase(seg.begin() + static_cast<std::ptrdiff_t>(first),
            seg.begin() + static_cast<std::ptrdiff_t>(first + count));
  seg.insert(seg.begin() + static_cast<std::ptrdiff_t>(first), std::move(repl));
}

// add_bias [+ dropout] + add -> fused_bias_dropout_add. The fused kernel
// draws the same site-keyed RNG stream the standalone dropout draws, so the
// rewrite is exact. Backward is already in its reference form (dropout_bwd,
// which redraws that stream, / bias_grad / add) and needs no pairing.
int fuse_bias_dropout_add(LayerPlan& plan) {
  int n = 0;
  for (std::size_t i = 0; i < plan.fwd.size(); ++i) {
    const Node& ab = plan.fwd[i];
    if (ab.kind != OpKind::kAddBias || ab.param < 0) continue;
    const std::vector<int> uses = use_counts(plan);
    const ValueId t = ab.out[0];
    if (!fusable_temp(plan, uses, t)) continue;
    std::size_t j = i + 1;
    ValueId chain = t;
    if (j < plan.fwd.size() && plan.fwd[j].kind == OpKind::kDropout &&
        plan.fwd[j].in[0] == chain) {
      if (!fusable_temp(plan, uses, plan.fwd[j].out[0])) continue;
      chain = plan.fwd[j].out[0];
      ++j;
    }
    if (j >= plan.fwd.size() || plan.fwd[j].kind != OpKind::kAdd ||
        plan.fwd[j].in[0] != chain) {
      continue;
    }
    Node fused;
    fused.kind = OpKind::kFusedBiasDropoutAdd;
    fused.in = {ab.in[0], plan.fwd[j].in[1]};  // (x, residual)
    fused.out = {plan.fwd[j].out[0]};
    fused.param = ab.param;
    fused.site = ab.site;
    splice(plan.fwd, i, j - i + 1, std::move(fused));
    ++n;
  }
  return n;
}

// add_bias + gelu -> fused_bias_gelu, jointly with the backward pair
// gelu_bwd + bias_grad_accum -> fused_bias_gelu_bwd (which re-materializes
// x + bias internally, so the pre-GeLU sum no longer needs to be saved).
int fuse_bias_gelu(LayerPlan& plan) {
  int n = 0;
  for (std::size_t i = 0; i + 1 < plan.fwd.size(); ++i) {
    const Node ab = plan.fwd[i];
    const Node ge = plan.fwd[i + 1];
    if (ab.kind != OpKind::kAddBias || ab.param < 0 ||
        ge.kind != OpKind::kGelu || ge.in[0] != ab.out[0]) {
      continue;
    }
    const ValueId t = ab.out[0];
    if (plan.values[static_cast<std::size_t>(t)].pinned) continue;
    // Find the backward pair consuming the same pre-GeLU sum.
    std::size_t bj = plan.bwd.size();
    for (std::size_t j = 0; j + 1 < plan.bwd.size(); ++j) {
      if (plan.bwd[j].kind == OpKind::kGeluBwd && plan.bwd[j].in[1] == t &&
          plan.bwd[j + 1].kind == OpKind::kBiasGradAccum &&
          plan.bwd[j + 1].param == ab.param &&
          plan.bwd[j + 1].in[0] == plan.bwd[j].out[0]) {
        bj = j;
        break;
      }
    }
    const std::vector<int> uses = use_counts(plan);
    const int expected = bj < plan.bwd.size() ? 2 : 1;  // gelu [+ gelu_bwd]
    if (uses[static_cast<std::size_t>(t)] != expected) continue;

    Node fused;
    fused.kind = OpKind::kFusedBiasGelu;
    fused.in = {ab.in[0]};
    fused.out = {ge.out[0]};
    fused.param = ab.param;
    splice(plan.fwd, i, 2, std::move(fused));
    if (bj < plan.bwd.size()) {
      Node fb;
      fb.kind = OpKind::kFusedBiasGeluBwd;
      fb.in = {plan.bwd[bj].in[0], ab.in[0]};  // (dy, pre-bias x) — x saved now
      fb.out = {plan.bwd[bj].out[0]};
      fb.param = ab.param;
      splice(plan.bwd, bj, 2, std::move(fb));
    }
    ++n;
  }
  return n;
}

const char* dtype_json(tensor::DType d) {
  return d == tensor::DType::kBf16 ? "bf16" : "f32";
}

void dump_nodes_json(const std::vector<Node>& seg, std::FILE* out) {
  std::fputc('[', out);
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const Node& n = seg[i];
    std::fprintf(out, "%s\n    {\"op\": \"%s\", \"in\": [", i ? "," : "",
                 op_name(n.kind));
    for (std::size_t j = 0; j < n.in.size(); ++j) {
      std::fprintf(out, "%s%d", j ? ", " : "", n.in[j]);
    }
    std::fputs("], \"out\": [", out);
    for (std::size_t j = 0; j < n.out.size(); ++j) {
      std::fprintf(out, "%s%d", j ? ", " : "", n.out[j]);
    }
    std::fputc(']', out);
    if (n.linear >= 0) std::fprintf(out, ", \"linear\": %d", n.linear);
    if (n.param >= 0) std::fprintf(out, ", \"param\": %d", n.param);
    if (n.param2 >= 0) std::fprintf(out, ", \"param2\": %d", n.param2);
    if (n.kind == OpKind::kDropout || n.kind == OpKind::kDropoutBwd ||
        n.kind == OpKind::kFusedBiasDropoutAdd) {
      std::fprintf(out, ", \"site\": %d", static_cast<int>(n.site));
    }
    if (n.scale != 0.0f) std::fprintf(out, ", \"scale\": %.9g", n.scale);
    std::fputc('}', out);
  }
  std::fputs("\n  ]", out);
}

}  // namespace

int fuse_operators(LayerPlan& plan) {
  int n = 0;
  n += fuse_bias_gelu(plan);
  n += fuse_bias_dropout_add(plan);
  plan.fused = true;
  plan.num_fusions += n;
  return n;
}

void propagate_dtypes(LayerPlan& plan, const model::GptConfig& config) {
  // §13: every kernel here is f32-compute; the only low-precision values a
  // layer plan holds are the GEMM inputs the linear layers stash for their
  // backward, which are narrowed to the weight's storage dtype.
  if (config.dtype != tensor::DType::kBf16) return;
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    const Node& node = plan.unified(u);
    if (node.kind != OpKind::kLinearFwd) continue;
    Value& cached = plan.values[static_cast<std::size_t>(node.out[1])];
    if (cached.dtype == tensor::DType::kF32) {
      cached.dtype = tensor::DType::kBf16;
      cached.ref_bytes /= 2;
    }
  }
}

void analyze_lifetimes(LayerPlan& plan) {
  for (Value& v : plan.values) {
    v.def = -1;
    v.last_use = -1;
    v.saved = false;
  }
  const std::int32_t fwd_size = static_cast<std::int32_t>(plan.fwd.size());
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    const Node& node = plan.unified(u);
    const auto iu = static_cast<std::int32_t>(u);
    for (ValueId vid : node.out) {
      Value& v = plan.values[static_cast<std::size_t>(vid)];
      PTDP_CHECK(v.def == -1) << "value " << v.name << " redefined";
      v.def = iu;
    }
    for (ValueId vid : node.in) {
      plan.values[static_cast<std::size_t>(vid)].last_use = iu;
    }
  }
  for (Value& v : plan.values) {
    v.saved = v.def >= 0 && v.def < fwd_size && v.last_use >= fwd_size;
  }
}

void plan_buffers(LayerPlan& plan) {
  for (Value& v : plan.values) v.slot = -1;
  std::vector<std::pair<std::int64_t, tensor::DType>> slots;
  std::map<std::pair<std::int64_t, int>, std::vector<std::int32_t>> freelist;
  std::int64_t live = 0;
  BufferPlanStats stats;
  for (std::size_t u = 0; u < plan.unified_size(); ++u) {
    const Node& node = plan.unified(u);
    const auto iu = static_cast<std::int32_t>(u);
    for (ValueId vid : node.out) {
      Value& v = plan.values[static_cast<std::size_t>(vid)];
      if (v.ref_bytes == 0) continue;  // alias/degenerate: no storage planned
      live += v.ref_bytes;
      stats.peak_bytes = std::max(stats.peak_bytes, live);
      const auto key = std::make_pair(v.ref_bytes, static_cast<int>(v.dtype));
      auto it = freelist.find(key);
      if (!v.pinned && it != freelist.end() && !it->second.empty()) {
        v.slot = it->second.back();
        it->second.pop_back();
      } else {
        v.slot = static_cast<std::int32_t>(slots.size());
        slots.emplace_back(v.ref_bytes, v.dtype);
      }
    }
    for (ValueId vid : node.in) {
      Value& v = plan.values[static_cast<std::size_t>(vid)];
      if (v.ref_bytes == 0 || v.def < 0 || v.last_use != iu) continue;
      live -= v.ref_bytes;
      if (v.slot >= 0 && !v.pinned) {
        freelist[{v.ref_bytes, static_cast<int>(v.dtype)}].push_back(v.slot);
      }
    }
  }
  stats.num_slots = static_cast<std::int32_t>(slots.size());
  for (const auto& [bytes, dtype] : slots) stats.slot_bytes += bytes;
  for (const Value& v : plan.values) {
    if (v.def >= 0) stats.total_value_bytes += v.ref_bytes;
    if (v.saved) stats.saved_bytes += v.ref_bytes;
  }
  plan.buffer = stats;
}

void dump_plan_json(const LayerPlan& plan, std::int64_t layer_idx,
                    std::FILE* out) {
  std::fprintf(out,
               "{\n  \"layer\": %lld, \"with_dropout\": %s, \"fused\": %s, "
               "\"causal\": %s, \"num_fusions\": %d,\n",
               static_cast<long long>(layer_idx),
               plan.with_dropout ? "true" : "false",
               plan.fused ? "true" : "false", plan.causal ? "true" : "false",
               plan.num_fusions);
  std::fprintf(
      out,
      "  \"buffer\": {\"num_slots\": %d, \"slot_bytes\": %lld, "
      "\"total_value_bytes\": %lld, \"peak_bytes\": %lld, \"saved_bytes\": "
      "%lld},\n",
      plan.buffer.num_slots, static_cast<long long>(plan.buffer.slot_bytes),
      static_cast<long long>(plan.buffer.total_value_bytes),
      static_cast<long long>(plan.buffer.peak_bytes),
      static_cast<long long>(plan.buffer.saved_bytes));
  std::fputs("  \"values\": [", out);
  bool first = true;
  for (std::size_t i = 0; i < plan.values.size(); ++i) {
    const Value& v = plan.values[i];
    if (v.def < 0 && v.last_use < 0 &&
        static_cast<ValueId>(i) != plan.input &&
        static_cast<ValueId>(i) != plan.grad_in) {
      continue;  // dead (fused away)
    }
    std::fprintf(out,
                 "%s\n    {\"id\": %zu, \"name\": \"%s\", \"shape\": \"%s\", "
                 "\"dtype\": \"%s\", \"ref_bytes\": %lld, \"def\": %d, "
                 "\"last_use\": %d, \"saved\": %s, \"slot\": %d}",
                 first ? "" : ",", i, v.name.c_str(), v.shape.c_str(),
                 dtype_json(v.dtype), static_cast<long long>(v.ref_bytes),
                 v.def, v.last_use, v.saved ? "true" : "false", v.slot);
    first = false;
  }
  std::fputs("\n  ],\n  \"forward\": ", out);
  dump_nodes_json(plan.fwd, out);
  std::fputs(",\n  \"backward\": ", out);
  dump_nodes_json(plan.bwd, out);
  std::fputs("\n}", out);
}

void dump_stage_plan_json(const StagePlan& plan, const model::GptConfig& config,
                          std::FILE* out) {
  std::fprintf(
      out,
      "{\n\"schema\": \"ptdp-plan-v1\",\n\"config\": {\"num_layers\": %lld, "
      "\"hidden\": %lld, \"heads\": %lld, \"seq\": %lld, \"vocab\": %lld, "
      "\"dropout\": %.9g, \"dtype\": \"%s\", \"causal\": %s},\n",
      static_cast<long long>(config.num_layers),
      static_cast<long long>(config.hidden),
      static_cast<long long>(config.heads), static_cast<long long>(config.seq),
      static_cast<long long>(config.vocab), config.dropout,
      dtype_json(config.dtype), config.causal ? "true" : "false");
  std::fprintf(out,
               "\"stage\": {\"layer_begin\": %lld, \"layer_end\": %lld, "
               "\"has_embedding\": %s, \"has_head\": %s, \"recompute\": %s},\n",
               static_cast<long long>(plan.layer_begin),
               static_cast<long long>(plan.layer_end),
               plan.has_embedding ? "true" : "false",
               plan.has_head ? "true" : "false",
               plan.recompute ? "true" : "false");
  std::fputs("\"layers\": [\n", out);
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    if (i) std::fputs(",\n", out);
    dump_plan_json(plan.layers[i], plan.layer_begin + static_cast<std::int64_t>(i),
                   out);
  }
  std::fputs("\n]\n}\n", out);
}

}  // namespace ptdp::graph
