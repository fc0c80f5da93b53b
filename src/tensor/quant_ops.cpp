#include "ptdp/tensor/quant_ops.hpp"

#include <algorithm>
#include <cmath>

#include "ptdp/runtime/parallel_for.hpp"
#include "ptdp/tensor/tensor.hpp"

namespace ptdp::tensor {

namespace {

using runtime::parallel_for;

std::int64_t payload_row_bytes(QuantKind kind) {
  return kind == QuantKind::kQ4 ? kQuantPanel / 2 : kQuantPanel;
}

// Asymmetric affine parameters of one (group, column): s and integer z such
// that q = round(w/s) + z lands in [0, Q] for every w in [mn, mx] and
// ŵ = (q - z)·s has error ≤ s/2 ≤ (mx - mn)/Q. The scale is first set to
// the exact range/Q, the zero-point rounded to an integer, then the scale
// widened just enough that the *rounded* z still covers both extremes —
// clamping never distorts in-range weights.
void affine_params(float mn, float mx, std::int64_t levels, float& s_out,
                   std::uint8_t& z_out) {
  if (mx <= mn) {
    // Degenerate group (constant value v): s = v, z = 0, q = 1 reproduces v
    // exactly; all-zero groups get s = 0.
    s_out = mx;
    z_out = 0;
    return;
  }
  const float q = static_cast<float>(levels);
  const float s0 = (mx - mn) / q;
  const long z = std::clamp<long>(std::lround(-mn / s0), 0, levels);
  float s = s0;
  if (z > 0) s = std::max(s, -mn / static_cast<float>(z));
  if (z < levels) s = std::max(s, mx / static_cast<float>(levels - z));
  s_out = s;
  z_out = static_cast<std::uint8_t>(z);
}

std::uint8_t quantize_value(float w, float s, std::uint8_t z, std::int64_t levels) {
  if (s == 0.0f) return 0;
  const long q =
      std::clamp<long>(std::lround(w / s) + static_cast<long>(z), 0, levels);
  return static_cast<std::uint8_t>(q);
}

}  // namespace

const char* quant_kind_name(QuantKind kind) {
  return kind == QuantKind::kQ4 ? "q4" : "int8";
}

std::int64_t quant_levels(QuantKind kind) {
  return kind == QuantKind::kQ4 ? 15 : 255;
}

std::int64_t quant_payload_bytes(QuantKind kind, std::int64_t k, std::int64_t n) {
  return k * quant_num_panels(n) * payload_row_bytes(kind);
}

std::int64_t quant_meta_elems(std::int64_t k, std::int64_t n, std::int64_t group) {
  PTDP_CHECK_GT(group, 0);
  PTDP_CHECK_EQ(k % group, 0) << "group must divide k";
  return (k / group) * quant_num_panels(n) * kQuantPanel;
}

void quant_pack(QuantKind kind, const float* w, std::int64_t k, std::int64_t n,
                std::int64_t group, std::uint8_t* payload, float* scales,
                std::uint8_t* zeros) {
  const std::int64_t levels = quant_levels(kind);
  const std::int64_t npanels = quant_num_panels(n);
  const std::int64_t meta_stride = npanels * kQuantPanel;
  const std::int64_t row_bytes = payload_row_bytes(kind);
  const std::int64_t ngroups = quant_meta_elems(k, n, group) / meta_stride;
  // Panels are independent, so pack-at-load parallelizes without changing
  // a single output byte.
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 18) / std::max<std::int64_t>(k, 1));
  parallel_for(0, npanels, grain, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t jp = p0; jp < p1; ++jp) {
      float s[kQuantPanel];
      std::uint8_t z[kQuantPanel];
      for (std::int64_t gi = 0; gi < ngroups; ++gi) {
        for (std::int64_t j = 0; j < kQuantPanel; ++j) {
          const std::int64_t col = jp * kQuantPanel + j;
          if (col >= n) {
            s[j] = 0.0f;
            z[j] = 0;
            continue;
          }
          float mn = w[gi * group * n + col];
          float mx = mn;
          for (std::int64_t kk = gi * group + 1; kk < (gi + 1) * group; ++kk) {
            const float v = w[kk * n + col];
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
          affine_params(mn, mx, levels, s[j], z[j]);
        }
        float* sc = scales + (gi * npanels + jp) * kQuantPanel;
        std::uint8_t* zp = zeros + (gi * npanels + jp) * kQuantPanel;
        std::copy_n(s, kQuantPanel, sc);
        std::copy_n(z, kQuantPanel, zp);
        for (std::int64_t kk = gi * group; kk < (gi + 1) * group; ++kk) {
          std::uint8_t q[kQuantPanel];
          for (std::int64_t j = 0; j < kQuantPanel; ++j) {
            const std::int64_t col = jp * kQuantPanel + j;
            q[j] = col < n ? quantize_value(w[kk * n + col], s[j], z[j], levels) : 0;
          }
          std::uint8_t* dst = payload + (jp * k + kk) * row_bytes;
          if (kind == QuantKind::kQ4) {
            for (std::int64_t j = 0; j < 8; ++j) {
              dst[j] = static_cast<std::uint8_t>(q[j] | (q[j + 8] << 4));
            }
          } else {
            std::copy_n(q, kQuantPanel, dst);
          }
        }
      }
    }
  });
}

void quant_unpack_panel(const QuantView& w, std::int64_t jp, std::int64_t k0,
                        std::int64_t kc, std::int64_t cols, float* out,
                        std::int64_t ldo) {
  const std::int64_t meta_stride = quant_num_panels(w.n) * kQuantPanel;
  const std::int64_t row_bytes = payload_row_bytes(w.kind);
  for (std::int64_t kk = k0; kk < k0 + kc; ++kk) {
    const std::int64_t meta = (kk / w.group) * meta_stride + jp * kQuantPanel;
    const std::uint8_t* src = w.payload + (jp * w.k + kk) * row_bytes;
    float* dst = out + (kk - k0) * ldo;
    for (std::int64_t j = 0; j < cols; ++j) {
      std::uint8_t q;
      if (w.kind == QuantKind::kQ4) {
        const std::uint8_t raw = src[j & 7];
        q = j < 8 ? (raw & 0x0F) : (raw >> 4);
      } else {
        q = src[j];
      }
      dst[j] = (static_cast<float>(q) - static_cast<float>(w.zeros[meta + j])) *
               w.scales[meta + j];
    }
  }
}

void quant_unpack(const QuantView& w, float* out) {
  for (std::int64_t jp = 0; jp < quant_num_panels(w.n); ++jp) {
    quant_unpack_panel(w, jp, 0, w.k, std::min(kQuantPanel, w.n - jp * kQuantPanel),
                       out + jp * kQuantPanel, w.n);
  }
}

}  // namespace ptdp::tensor
