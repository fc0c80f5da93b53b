#include "ptdp/tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>


namespace ptdp::tensor {

namespace {

// Storage is float-denominated (the mem::Buffer unit); bf16 tensors round
// up to a whole float so the pooled size classes and byte accounting stay
// within one element of exact.
std::size_t storage_floats(std::int64_t numel, DType dtype) {
  const std::size_t bytes =
      static_cast<std::size_t>(numel) * dtype_size(dtype);
  return (bytes + sizeof(float) - 1) / sizeof(float);
}

}  // namespace

std::int64_t numel_of(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    PTDP_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

Tensor Tensor::empty(Shape shape, DType dtype) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = numel_of(t.shape_);
  t.dtype_ = dtype;
  t.storage_ = std::make_shared<mem::Buffer>(storage_floats(t.numel_, dtype));
  return t;
}

Tensor::Tensor(Shape shape) {
  *this = empty(std::move(shape));
  zero();
}

Tensor Tensor::zeros(Shape shape, DType dtype) {
  Tensor t = empty(std::move(shape), dtype);
  t.zero();
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = empty(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t = empty(std::move(shape));
  for (float& v : t.data()) v = static_cast<float>(rng.next_gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = empty(std::move(shape));
  for (float& v : t.data()) v = static_cast<float>(rng.next_uniform(lo, hi));
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t = empty({n});
  auto d = t.data();
  for (std::int64_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return t;
}

Tensor Tensor::from_values(std::initializer_list<float> values) {
  Tensor t = empty({static_cast<std::int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data().begin());
  return t;
}

Tensor Tensor::from_vector(Shape shape, const std::vector<float>& values) {
  PTDP_CHECK_EQ(numel_of(shape), static_cast<std::int64_t>(values.size()));
  Tensor t = empty(std::move(shape));
  std::copy(values.begin(), values.end(), t.data().begin());
  return t;
}

std::int64_t Tensor::dim(std::int64_t i) const {
  if (i < 0) i += ndim();
  PTDP_CHECK_GE(i, 0);
  PTDP_CHECK_LT(i, ndim());
  return shape_[static_cast<std::size_t>(i)];
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

std::span<float> Tensor::data() {
  PTDP_CHECK(defined()) << "data() on undefined tensor";
  PTDP_CHECK(dtype_ == DType::kF32)
      << "data() on " << dtype_name(dtype_)
      << " tensor — widen with to(DType::kF32) or use data_bf16()";
  return {storage_->data() + offset_, static_cast<std::size_t>(numel_)};
}

std::span<const float> Tensor::data() const {
  PTDP_CHECK(defined()) << "data() on undefined tensor";
  PTDP_CHECK(dtype_ == DType::kF32)
      << "data() on " << dtype_name(dtype_)
      << " tensor — widen with to(DType::kF32) or use data_bf16()";
  return {storage_->data() + offset_, static_cast<std::size_t>(numel_)};
}

std::span<bf16_t> Tensor::data_bf16() {
  PTDP_CHECK(defined()) << "data_bf16() on undefined tensor";
  PTDP_CHECK(dtype_ == DType::kBf16)
      << "data_bf16() on " << dtype_name(dtype_) << " tensor";
  return {reinterpret_cast<bf16_t*>(storage_->data()) + offset_,
          static_cast<std::size_t>(numel_)};
}

std::span<const bf16_t> Tensor::data_bf16() const {
  PTDP_CHECK(defined()) << "data_bf16() on undefined tensor";
  PTDP_CHECK(dtype_ == DType::kBf16)
      << "data_bf16() on " << dtype_name(dtype_) << " tensor";
  return {reinterpret_cast<const bf16_t*>(storage_->data()) + offset_,
          static_cast<std::size_t>(numel_)};
}

std::span<std::byte> Tensor::raw_bytes() {
  PTDP_CHECK(defined()) << "raw_bytes() on undefined tensor";
  return {reinterpret_cast<std::byte*>(storage_->data()) +
              static_cast<std::size_t>(offset_) * itemsize(),
          nbytes()};
}

std::span<const std::byte> Tensor::raw_bytes() const {
  PTDP_CHECK(defined()) << "raw_bytes() on undefined tensor";
  return {reinterpret_cast<const std::byte*>(storage_->data()) +
              static_cast<std::size_t>(offset_) * itemsize(),
          nbytes()};
}

std::int64_t Tensor::flat_index(std::initializer_list<std::int64_t> idx) const {
  PTDP_CHECK_EQ(static_cast<std::int64_t>(idx.size()), ndim());
  std::int64_t flat = 0;
  std::size_t d = 0;
  for (std::int64_t i : idx) {
    PTDP_DCHECK(i >= 0 && i < shape_[d]);
    flat = flat * shape_[d] + i;
    ++d;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data()[static_cast<std::size_t>(flat_index(idx))];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data()[static_cast<std::size_t>(flat_index(idx))];
}

Tensor Tensor::view(Shape new_shape) const {
  PTDP_CHECK_EQ(numel_of(new_shape), numel_)
      << "view " << shape_str() << " -> incompatible shape";
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.numel_ = numel_;
  t.offset_ = offset_;
  t.dtype_ = dtype_;
  t.storage_ = storage_;
  return t;
}

Tensor Tensor::clone() const {
  Tensor t = empty(shape_, dtype_);
  std::memcpy(t.raw_bytes().data(), raw_bytes().data(), nbytes());
  return t;
}

void Tensor::copy_from(const Tensor& src) {
  PTDP_CHECK(same_shape(src)) << "copy_from shape mismatch " << shape_str() << " vs "
                              << src.shape_str();
  PTDP_CHECK(dtype_ == src.dtype_)
      << "copy_from dtype mismatch " << dtype_name(dtype_) << " vs "
      << dtype_name(src.dtype_) << " — use cast_into() for conversions";
  std::memcpy(raw_bytes().data(), src.raw_bytes().data(), nbytes());
}

void Tensor::fill(float value) {
  if (dtype_ == DType::kF32) {
    auto d = data();
    std::fill(d.begin(), d.end(), value);
  } else {
    auto d = data_bf16();
    std::fill(d.begin(), d.end(), f32_to_bf16(value));
  }
}

Tensor Tensor::to(DType dtype) const {
  if (dtype == dtype_) return clone();
  Tensor out = empty(shape_, dtype);
  cast_into(*this, out);
  return out;
}

Tensor Tensor::slice(std::int64_t dim, std::int64_t start, std::int64_t len) const {
  if (dim < 0) dim += ndim();
  PTDP_CHECK_GE(dim, 0);
  PTDP_CHECK_LT(dim, ndim());
  PTDP_CHECK_GE(start, 0);
  PTDP_CHECK_LE(start + len, shape_[static_cast<std::size_t>(dim)]);

  Shape out_shape = shape_;
  out_shape[static_cast<std::size_t>(dim)] = len;

  std::int64_t inner = 1;
  for (std::int64_t i = dim + 1; i < ndim(); ++i)
    inner *= shape_[static_cast<std::size_t>(i)];

  if (dim == 0) {
    // Leading-dim slice is a contiguous strip: zero-copy view.
    Tensor out;
    out.shape_ = std::move(out_shape);
    out.numel_ = len * inner;
    out.offset_ = offset_ + start * inner;
    out.dtype_ = dtype_;
    out.storage_ = storage_;
    return out;
  }

  // Treat the tensor as [outer, dim, inner] and copy row strips bytewise
  // (the same loop serves both dtypes).
  std::int64_t outer = 1;
  for (std::int64_t i = 0; i < dim; ++i) outer *= shape_[static_cast<std::size_t>(i)];
  const std::int64_t src_dim = shape_[static_cast<std::size_t>(dim)];

  Tensor out = empty(std::move(out_shape), dtype_);
  const std::size_t item = itemsize();
  const std::byte* src = raw_bytes().data();
  std::byte* dst = out.raw_bytes().data();
  for (std::int64_t o = 0; o < outer; ++o) {
    const std::byte* s = src + static_cast<std::size_t>((o * src_dim + start) * inner) * item;
    std::byte* t = dst + static_cast<std::size_t>(o * len * inner) * item;
    std::memcpy(t, s, static_cast<std::size_t>(len * inner) * item);
  }
  return out;
}

Tensor Tensor::transpose(std::int64_t d0, std::int64_t d1) const {
  std::vector<std::int64_t> perm(static_cast<std::size_t>(ndim()));
  std::iota(perm.begin(), perm.end(), 0);
  if (d0 < 0) d0 += ndim();
  if (d1 < 0) d1 += ndim();
  std::swap(perm[static_cast<std::size_t>(d0)], perm[static_cast<std::size_t>(d1)]);
  return permute(perm);
}

namespace {

// Shared gather loop for permute: one element type, strides precomputed.
template <typename T>
void permute_gather(const T* src, T* dst, std::int64_t numel,
                    const Shape& out_shape,
                    const std::vector<std::int64_t>& gather_strides) {
  const std::size_t nd = out_shape.size();
  std::vector<std::int64_t> idx(nd, 0);
  std::int64_t src_off = 0;
  for (std::int64_t flat = 0; flat < numel; ++flat) {
    dst[static_cast<std::size_t>(flat)] = src[static_cast<std::size_t>(src_off)];
    // Increment the multi-index in output order, tracking source offset.
    for (std::size_t i = nd; i-- > 0;) {
      ++idx[i];
      src_off += gather_strides[i];
      if (idx[i] < out_shape[i]) break;
      src_off -= gather_strides[i] * out_shape[i];
      idx[i] = 0;
    }
  }
}

}  // namespace

Tensor Tensor::permute(const std::vector<std::int64_t>& perm) const {
  PTDP_CHECK_EQ(static_cast<std::int64_t>(perm.size()), ndim());
  const std::size_t nd = perm.size();

  Shape out_shape(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    out_shape[i] = shape_[static_cast<std::size_t>(perm[i])];
  }
  Tensor out = empty(out_shape, dtype_);
  if (numel_ == 0) return out;

  // Row-major strides for the source shape.
  std::vector<std::int64_t> src_strides(nd, 1);
  for (std::size_t i = nd - 1; i > 0; --i) {
    src_strides[i - 1] = src_strides[i] * shape_[i];
  }
  // Stride of the output's i-th dimension measured in the source layout.
  std::vector<std::int64_t> gather_strides(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    gather_strides[i] = src_strides[static_cast<std::size_t>(perm[i])];
  }

  if (dtype_ == DType::kF32) {
    permute_gather(data().data(), out.data().data(), numel_, out_shape,
                   gather_strides);
  } else {
    permute_gather(data_bf16().data(), out.data_bf16().data(), numel_,
                   out_shape, gather_strides);
  }
  return out;
}

Tensor concat(const std::vector<Tensor>& parts, std::int64_t dim) {
  PTDP_CHECK(!parts.empty());
  const Tensor& first = parts.front();
  if (dim < 0) dim += first.ndim();
  Shape out_shape = first.shape();
  std::int64_t total = 0;
  for (const Tensor& p : parts) {
    PTDP_CHECK_EQ(p.ndim(), first.ndim());
    PTDP_CHECK(p.dtype() == first.dtype()) << "concat dtype mismatch";
    for (std::int64_t i = 0; i < p.ndim(); ++i) {
      if (i != dim) {
        PTDP_CHECK_EQ(p.dim(i), first.dim(i));
      }
    }
    total += p.dim(dim);
  }
  out_shape[static_cast<std::size_t>(dim)] = total;
  Tensor out = Tensor::empty(out_shape, first.dtype());

  std::int64_t outer = 1, inner = 1;
  for (std::int64_t i = 0; i < dim; ++i) outer *= first.dim(i);
  for (std::int64_t i = dim + 1; i < first.ndim(); ++i) inner *= first.dim(i);

  const std::size_t item = first.itemsize();
  std::byte* dst = out.raw_bytes().data();
  std::int64_t dim_off = 0;
  for (const Tensor& p : parts) {
    const std::int64_t p_dim = p.dim(dim);
    const std::byte* src = p.raw_bytes().data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const std::byte* s = src + static_cast<std::size_t>(o * p_dim * inner) * item;
      std::byte* t =
          dst + static_cast<std::size_t>((o * total + dim_off) * inner) * item;
      std::memcpy(t, s, static_cast<std::size_t>(p_dim * inner) * item);
    }
    dim_off += p_dim;
  }
  return out;
}

std::vector<Tensor> split(const Tensor& x, std::int64_t n, std::int64_t dim) {
  if (dim < 0) dim += x.ndim();
  PTDP_CHECK_GT(n, 0);
  PTDP_CHECK_EQ(x.dim(dim) % n, 0)
      << "split: dim " << dim << " of " << x.shape_str() << " not divisible by " << n;
  const std::int64_t len = x.dim(dim) / n;
  std::vector<Tensor> parts;
  parts.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    parts.push_back(x.slice(dim, i * len, len));
  }
  return parts;
}

void cast_into(const Tensor& src, Tensor& dst) {
  PTDP_CHECK(src.same_shape(dst))
      << "cast_into shape mismatch " << src.shape_str() << " vs "
      << dst.shape_str();
  if (src.dtype() == dst.dtype()) {
    dst.copy_from(src);
  } else if (src.dtype() == DType::kBf16) {
    widen_bf16(src.data_bf16(), dst.data());
  } else {
    narrow_bf16(src.data(), dst.data_bf16());
  }
}

namespace {

// Reads element i of either dtype as f32 (bf16 widens exactly).
float elem_f32(const Tensor& t, std::size_t i) {
  return t.dtype() == DType::kF32 ? t.data()[i] : bf16_to_f32(t.data_bf16()[i]);
}

}  // namespace

float max_abs_diff(const Tensor& a, const Tensor& b) {
  PTDP_CHECK(a.same_shape(b)) << a.shape_str() << " vs " << b.shape_str();
  float m = 0.0f;
  if (a.dtype() == DType::kF32 && b.dtype() == DType::kF32) {
    auto da = a.data();
    auto db = b.data();
    for (std::size_t i = 0; i < da.size(); ++i) {
      m = std::max(m, std::abs(da[i] - db[i]));
    }
    return m;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.numel()); ++i) {
    m = std::max(m, std::abs(elem_f32(a, i) - elem_f32(b, i)));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  PTDP_CHECK(a.same_shape(b)) << a.shape_str() << " vs " << b.shape_str();
  float bmax = 0.0f;
  for (std::size_t i = 0; i < static_cast<std::size_t>(b.numel()); ++i) {
    bmax = std::max(bmax, std::abs(elem_f32(b, i)));
  }
  return max_abs_diff(a, b) <= atol + rtol * bmax;
}

}  // namespace ptdp::tensor
