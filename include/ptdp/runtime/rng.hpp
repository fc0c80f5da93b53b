#pragma once

// Counter-based deterministic RNG (splitmix64-derived Philox-style mixing).
//
// All randomness in ptdp flows through Rng instances keyed on
// (seed, stream, counter). Because draws are pure functions of the key,
// results are identical regardless of thread scheduling — a requirement
// for verifying that a (p,t,d)-parallel training run matches the serial
// run bit-for-bit at initialization time.

#include <cmath>
#include <cstdint>
#include <numbers>

namespace ptdp {

namespace detail {

constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace detail

/// True when raw draw `u` is a Bernoulli(p) success: its top 53 bits read as
/// a uniform in [0, 1) fall below p. Dropout drops an element on success.
/// Rng::next_bernoulli and every kernel that redraws a dropout bit in place
/// go through this one expression.
constexpr bool bernoulli(std::uint64_t u, double p) noexcept {
  return static_cast<double>(u >> 11) * 0x1.0p-53 < p;
}

/// Deterministic counter-based random stream.
class Rng {
 public:
  /// @param seed   global experiment seed
  /// @param stream substream id (e.g. hash of (rank, purpose))
  constexpr explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept
      : key_(detail::mix64(seed ^ detail::mix64(stream * 0xda3e39cb94b95bdbULL))) {}

  /// Next raw 64-bit draw.
  constexpr std::uint64_t next_u64() noexcept { return u64_at(counter_++); }

  /// Draw e of the stream, whatever the counter: a fresh stream's e-th
  /// next_u64(). Kernels redraw dropout bits with it where they read them.
  constexpr std::uint64_t u64_at(std::uint64_t e) const noexcept {
    return detail::mix64(key_ ^ detail::mix64(e));
  }

  /// Uniform in [0, 1).
  double next_uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double next_uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept {
    // Multiply-shift rejection-free mapping; bias is < 2^-53 for the n we use.
    return static_cast<std::uint64_t>(next_uniform() * static_cast<double>(n));
  }

  /// Standard normal via Box–Muller (uses two draws).
  double next_gaussian() noexcept {
    double u1 = next_uniform();
    double u2 = next_uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// N(mean, stddev^2).
  double next_gaussian(double mean, double stddev) noexcept {
    return mean + stddev * next_gaussian();
  }

  /// Bernoulli draw with probability p of true.
  bool next_bernoulli(double p) noexcept { return bernoulli(next_u64(), p); }

  /// Skip the counter forward (never backward).
  constexpr void discard(std::uint64_t n) noexcept { counter_ += n; }

  constexpr std::uint64_t counter() const noexcept { return counter_; }

 private:
  std::uint64_t key_;
  std::uint64_t counter_ = 0;
};

/// Derive a substream id from a tuple of small integers (rank, purpose, ...).
constexpr std::uint64_t substream(std::uint64_t a, std::uint64_t b = 0,
                                  std::uint64_t c = 0) noexcept {
  return detail::mix64(a ^ detail::mix64(b ^ detail::mix64(c)));
}

}  // namespace ptdp
