#include "ptdp/quant/quant.hpp"

#include <algorithm>

#include "ptdp/ckpt/checkpoint.hpp"
#include "ptdp/ckpt/manifest.hpp"

namespace ptdp::quant {

using tensor::QuantKind;
using tensor::Tensor;

namespace {

// Byte blobs ride in f32 tensors (numel = ceil(bytes/4)) so pool
// accounting and checkpoint CRCs treat them uniformly. The padding tail is
// zeroed, keeping the stored bits a pure function of the quantized content.
Tensor byte_tensor(std::int64_t nbytes) {
  Tensor t = Tensor::empty({(nbytes + 3) / 4});
  t.zero();
  return t;
}

std::uint8_t* tensor_u8(Tensor& t) {
  return reinterpret_cast<std::uint8_t*>(t.raw_bytes().data());
}
const std::uint8_t* tensor_u8(const Tensor& t) {
  return reinterpret_cast<const std::uint8_t*>(t.raw_bytes().data());
}

}  // namespace

std::int64_t QuantizedWeight::payload_bytes() const {
  return tensor::quant_payload_bytes(kind, rows, cols);
}

std::int64_t QuantizedWeight::meta_elems() const {
  return tensor::quant_meta_elems(rows, cols, group_size);
}

std::int64_t QuantizedWeight::quant_bytes() const {
  if (!defined()) return 0;
  return payload_bytes() + meta_elems() * 5;  // f32 scale + u8 zero per group
}

tensor::QuantView QuantizedWeight::view() const {
  return {kind, payload_u8(), scales.data().data(), zeros_u8(), rows, cols,
          group_size};
}

std::uint8_t* QuantizedWeight::payload_u8() { return tensor_u8(payload); }
const std::uint8_t* QuantizedWeight::payload_u8() const {
  return tensor_u8(payload);
}
std::uint8_t* QuantizedWeight::zeros_u8() { return tensor_u8(zeros); }
const std::uint8_t* QuantizedWeight::zeros_u8() const { return tensor_u8(zeros); }

std::int64_t effective_group_size(std::int64_t requested, std::int64_t k_rows) {
  PTDP_CHECK_GT(k_rows, 0);
  std::int64_t g = std::clamp<std::int64_t>(requested, 1, k_rows);
  while (k_rows % g != 0) --g;
  return g;
}

QuantizedWeight quantize(const Tensor& w, QuantKind kind, std::int64_t group_size) {
  PTDP_CHECK_EQ(w.ndim(), 2) << "quantize expects a [k, n] weight";
  const Tensor wf =
      w.dtype() == tensor::DType::kF32 ? w : w.to(tensor::DType::kF32);
  const std::int64_t k = wf.dim(0);
  const std::int64_t n = wf.dim(1);
  const std::int64_t g = effective_group_size(group_size, k);
  const std::int64_t meta = tensor::quant_meta_elems(k, n, g);
  QuantizedWeight q{kind, k, n, g,
                    byte_tensor(tensor::quant_payload_bytes(kind, k, n)),
                    Tensor::empty({meta}), byte_tensor(meta)};
  tensor::quant_pack(kind, wf.data().data(), k, n, g, q.payload_u8(),
                     q.scales.data().data(), q.zeros_u8());
  return q;
}

Tensor dequantize(const QuantizedWeight& w) {
  PTDP_CHECK(w.defined());
  Tensor out = Tensor::empty({w.rows, w.cols});
  tensor::quant_unpack(w.view(), out.data().data());
  return out;
}

Tensor matmul(const Tensor& a, const QuantizedWeight& w) {
  PTDP_CHECK(w.defined());
  PTDP_CHECK(a.dtype() == tensor::DType::kF32)
      << "quantized GEMM takes f32 activations";
  PTDP_CHECK_EQ(a.dim(-1), w.rows);
  tensor::Shape out_shape = a.shape();
  out_shape.back() = w.cols;
  Tensor c = Tensor::empty(std::move(out_shape));
  tensor::gemm_f32xq(w.view(), a.numel() / w.rows, a.data().data(),
                     c.data().data());
  return c;
}

namespace {

ckpt::NamedTensors checkpoint_tensors(const std::vector<NamedQuant>& weights) {
  ckpt::NamedTensors nt;
  for (const NamedQuant& w : weights) {
    PTDP_CHECK(w.weight != nullptr && w.weight->defined()) << w.name;
    nt.emplace_back(w.name + ".q.payload", &w.weight->payload);
    nt.emplace_back(w.name + ".q.scales", &w.weight->scales);
    nt.emplace_back(w.name + ".q.zeros", &w.weight->zeros);
  }
  return nt;
}

}  // namespace

void save_quantized_checkpoint(const std::string& dir, std::uint64_t step,
                               const dist::Comm& tp,
                               const std::vector<NamedQuant>& weights,
                               QuantKind kind) {
  const ckpt::CommitSpec spec{step, 0, tp.rank(), 0, tensor::quant_kind_name(kind),
                              /*has_master_weights=*/false};
  ckpt::commit_checkpoint(tp, dir, spec, [&](const std::string& path) {
    return ckpt::save_checkpoint(path, checkpoint_tensors(weights), {step, 0});
  });
}

std::optional<std::uint64_t> load_quantized_checkpoint(
    const std::string& dir, const dist::Comm& tp,
    const std::vector<NamedQuant>& weights, QuantKind kind) {
  const auto step =
      ckpt::resolve_checkpoint(tp, dir, tensor::quant_kind_name(kind));
  if (!step) return std::nullopt;
  ckpt::load_checkpoint_by_name(
      ckpt::shard_path(ckpt::step_dir(dir, *step), 0, tp.rank(), 0),
      checkpoint_tensors(weights));
  return step;
}

}  // namespace ptdp::quant
