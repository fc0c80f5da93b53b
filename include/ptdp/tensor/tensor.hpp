#pragma once

// Dense tensor with shared storage (torch-like copy semantics: copies
// share the buffer, clone() deep-copies). Tensors are always contiguous
// in row-major order — transposes and non-leading-dim slices copy, but
// slice(dim=0, ...) is a zero-copy view (a contiguous strip of the
// parent's storage). This keeps every kernel a flat loop over std::span,
// which is what the fused-kernel story of §4.2 needs anyway.
//
// Dtype axis (DESIGN.md §13): storage is f32 (default) or bf16. data()
// is the f32 fast path every compute kernel uses and CHECK-fails on bf16
// tensors; bf16 payloads are reached via data_bf16() (raw uint16 bit
// patterns) or dtype-blind raw_bytes(). to(DType) casts; the structural
// ops (view/slice/clone/concat/...) are dtype-preserving. RNG factories
// always produce f32 — init in full precision, then cast.
//
// Storage comes from the ptdp::mem pooled allocator (DESIGN.md §12):
// Tensor::empty() is the uninitialized fast path for outputs that are
// fully overwritten; Tensor(shape)/zeros() additionally zero-fill.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ptdp/mem/pool.hpp"
#include "ptdp/runtime/check.hpp"
#include "ptdp/runtime/rng.hpp"
#include "ptdp/tensor/dtype.hpp"

namespace ptdp::tensor {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape.
std::int64_t numel_of(const Shape& shape);

class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // ---- factories -----------------------------------------------------------

  /// UNINITIALIZED tensor: for outputs every element of which is about to
  /// be overwritten. Reading before writing is undefined (and will differ
  /// between pool-on and pool-off runs — never let uninitialized bytes
  /// reach arithmetic). bf16 tensors of odd numel round their storage up
  /// to a whole float; the trailing 2 bytes are slack that no accessor
  /// (data_bf16, raw_bytes) ever exposes.
  static Tensor empty(Shape shape, DType dtype = DType::kF32);
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor zeros(Shape shape, DType dtype);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// N(0, stddev^2) entries drawn from `rng`.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// U[lo, hi) entries drawn from `rng`.
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  /// [0, 1, 2, ...] as a 1-D tensor.
  static Tensor arange(std::int64_t n);
  /// 1-D tensor from explicit values.
  static Tensor from_values(std::initializer_list<float> values);
  static Tensor from_vector(Shape shape, const std::vector<float>& values);

  // ---- metadata ------------------------------------------------------------

  std::int64_t ndim() const noexcept { return static_cast<std::int64_t>(shape_.size()); }
  const Shape& shape() const noexcept { return shape_; }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const noexcept { return numel_; }
  bool defined() const noexcept { return storage_ != nullptr; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string shape_str() const;
  DType dtype() const noexcept { return dtype_; }
  std::size_t itemsize() const noexcept { return dtype_size(dtype_); }
  /// Payload bytes (numel * itemsize) — what comm and checkpoint I/O move.
  std::size_t nbytes() const noexcept {
    return static_cast<std::size_t>(numel_) * itemsize();
  }

  // ---- element access --------------------------------------------------------

  /// f32 payload. CHECK-fails on bf16 tensors: kernels that want f32 math
  /// over a bf16 tensor must widen (to(DType::kF32)) or take the dtype
  /// dispatch path (matmul/bmm do, via packed widening).
  std::span<float> data();
  std::span<const float> data() const;
  /// bf16 payload as raw bit patterns. CHECK-fails on f32 tensors.
  std::span<bf16_t> data_bf16();
  std::span<const bf16_t> data_bf16() const;
  /// Dtype-blind payload bytes (exactly nbytes() long, never storage slack).
  std::span<std::byte> raw_bytes();
  std::span<const std::byte> raw_bytes() const;
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  // ---- structural ops (storage-sharing where possible) -----------------------

  /// Reinterpret with a new shape of equal numel; shares storage.
  Tensor view(Shape new_shape) const;
  /// Flatten to 1-D; shares storage.
  Tensor flatten() const { return view({numel_}); }
  /// Deep copy (same dtype).
  Tensor clone() const;
  /// Copy `src`'s contents into this tensor (shape AND dtype must match;
  /// converting copies go through to() / cast_into()).
  void copy_from(const Tensor& src);
  /// Set every element to `value` (rounded to the storage dtype).
  void fill(float value);
  void zero() { fill(0.0f); }
  /// Dtype conversion: a deep copy in the requested dtype (clone() when
  /// the dtype already matches). f32->bf16 rounds to nearest-even;
  /// bf16->f32 is exact.
  Tensor to(DType dtype) const;

  /// Slice along dimension `dim`: rows [start, start+len). dim 0 is a
  /// zero-copy VIEW (shares and keeps alive the parent's storage; writes
  /// are visible both ways) — clone() the result before mutating it if
  /// aliasing the parent is not wanted. Other dims deep-copy.
  Tensor slice(std::int64_t dim, std::int64_t start, std::int64_t len) const;
  /// Copying transpose of the two given dimensions.
  Tensor transpose(std::int64_t d0, std::int64_t d1) const;
  /// Copying permutation of dimensions.
  Tensor permute(const std::vector<std::int64_t>& perm) const;

 private:
  std::int64_t flat_index(std::initializer_list<std::int64_t> idx) const;

  Shape shape_;
  std::int64_t numel_ = 0;
  std::int64_t offset_ = 0;  ///< ELEMENT offset into storage_ (dim-0 views)
  DType dtype_ = DType::kF32;
  std::shared_ptr<mem::Buffer> storage_;
};

/// Concatenate along dimension `dim` (all other dims equal).
Tensor concat(const std::vector<Tensor>& parts, std::int64_t dim);
/// Split into `n` equal parts along dimension `dim`. Parts along dim 0
/// are zero-copy views into `x` (see Tensor::slice).
std::vector<Tensor> split(const Tensor& x, std::int64_t n, std::int64_t dim);

/// Vectorized dtype conversion into a pre-allocated destination (same
/// shape; any src/dst dtype pair). The zero-allocation path for staging
/// buffers.
void cast_into(const Tensor& src, Tensor& dst);
/// Span-level casts for staging buffers that never grow a Tensor wrapper.
void widen_bf16(std::span<const bf16_t> src, std::span<float> dst);
void narrow_bf16(std::span<const float> src, std::span<bf16_t> dst);

/// Max |a - b| over all elements (shapes must match; bf16 operands are
/// widened exactly, so mixed-dtype comparisons measure the true gap).
float max_abs_diff(const Tensor& a, const Tensor& b);
/// True iff max_abs_diff(a, b) <= atol + rtol * max|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f);

}  // namespace ptdp::tensor
