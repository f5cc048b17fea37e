// Accumulator-precision policies for the simulated tensor-core GEMMs.
//
// V100S tensor cores multiply FP16×FP16 and accumulate in either FP16
// ("pure FP16") or FP32 ("mixed precision") — §2.2 of the paper. Pure
// FP16 halves the shared-memory footprint of an intermediate row and
// skips FP32->FP16 conversion before masking/softmax (§3.3), but
// overflows on unscaled Q·K^T; E.T.'s scale-reordering fixes that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "numeric/bfloat16.hpp"
#include "numeric/half.hpp"

namespace et::numeric {

enum class Precision {
  kFp32,       ///< plain float math (general cores; no tensor core)
  kPureFp16,   ///< FP16 multiply, FP16 accumulate
  kMixed,      ///< FP16 multiply, FP32 accumulate (tensor-core default)
  kBf16Mixed,  ///< BF16 multiply, FP32 accumulate (A100/TPU style)
};

[[nodiscard]] constexpr std::string_view to_string(Precision p) noexcept {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kPureFp16: return "fp16";
    case Precision::kMixed: return "mixed";
    case Precision::kBf16Mixed: return "bf16";
  }
  return "?";
}

/// Bytes per element of the *storage* type under a policy.
[[nodiscard]] constexpr std::size_t storage_bytes(Precision p) noexcept {
  return p == Precision::kFp32 ? 4 : 2;
}

/// Bytes per element of the *accumulator* under a policy (what an
/// intermediate row of Q·K^T occupies in shared memory — §3.3 overhead (i)).
[[nodiscard]] constexpr std::size_t accumulator_bytes(Precision p) noexcept {
  return p == Precision::kPureFp16 ? 2 : 4;
}

/// Where a kernel's FLOPs are charged. Matrix products run on the tensor
/// cores under every FP16/BF16 policy and on the general FP32 cores under
/// kFp32; pointwise work always runs on the general cores. The latency
/// model prices the two units separately, so this is the one place the
/// choice is made.
struct OpCharge {
  std::uint64_t tensor_ops = 0;
  std::uint64_t fp_ops = 0;
};

[[nodiscard]] constexpr OpCharge op_charge(
    Precision p, std::uint64_t matmul, std::uint64_t pointwise = 0) noexcept {
  if (p == Precision::kFp32) return {0, matmul + pointwise};
  return {matmul, pointwise};
}

namespace detail {

/// fma_step with the policy fixed at compile time.
template <Precision P>
[[nodiscard]] inline float fma(float a, float b, float c) {
  if constexpr (P == Precision::kPureFp16) {
    const half prod = half(a) * half(b);
    return static_cast<float>(half(static_cast<float>(prod) +
                                   static_cast<float>(half(c))));
  } else if constexpr (P == Precision::kMixed) {
    return static_cast<float>(half(a)) * static_cast<float>(half(b)) + c;
  } else if constexpr (P == Precision::kBf16Mixed) {
    return static_cast<float>(bfloat16(a)) * static_cast<float>(bfloat16(b)) +
           c;
  } else {
    return a * b + c;
  }
}

/// dot and axpy with the policy fixed at compile time. Every operand is a
/// by-value parameter, so the accumulator stays in a register rather than
/// being reloaded after each store through a pointer that might alias it.
template <Precision P>
[[nodiscard]] inline float dot(const float* a, std::size_t stride_a,
                               const float* b, std::size_t stride_b,
                               std::size_t n, float acc) {
  for (std::size_t i = 0; i < n; ++i) {
    acc = fma<P>(a[i * stride_a], b[i * stride_b], acc);
  }
  return acc;
}

template <Precision P>
inline void axpy(float alpha, const float* x, std::size_t stride_x, float* y,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = fma<P>(alpha, x[i * stride_x], y[i]);
  }
}

/// Call f with the policy as a std::integral_constant: one switch per call
/// of the caller, not per FMA.
template <typename F>
decltype(auto) with_policy(Precision p, F&& f) {
  using std::integral_constant;
  switch (p) {
    case Precision::kPureFp16:
      return f(integral_constant<Precision, Precision::kPureFp16>{});
    case Precision::kMixed:
      return f(integral_constant<Precision, Precision::kMixed>{});
    case Precision::kBf16Mixed:
      return f(integral_constant<Precision, Precision::kBf16Mixed>{});
    case Precision::kFp32:
      break;
  }
  return f(integral_constant<Precision, Precision::kFp32>{});
}

}  // namespace detail

/// One simulated tensor-core FMA step: d = a*b + c with the policy's
/// rounding applied at each accumulation, which is what produces the
/// Fig. 4 overflow pattern for kPureFp16.
[[nodiscard]] inline float fma_step(Precision p, float a, float b, float c) {
  return detail::with_policy(p, [&](auto pol) {
    return detail::fma<decltype(pol)::value>(a, b, c);
  });
}

/// The policy's inner loop: acc folded left through fma_step over
/// a[i·stride_a]·b[i·stride_b], i = 0..n-1. Every accumulate loop of the
/// GEMM and attention kernels is one call, so this is the one function a
/// faster (vectorized, pre-rounding) policy loop has to replace.
[[nodiscard]] inline float dot(Precision p, const float* a,
                               std::size_t stride_a, const float* b,
                               std::size_t stride_b, std::size_t n,
                               float acc) {
  return detail::with_policy(p, [&](auto pol) {
    return detail::dot<decltype(pol)::value>(a, stride_a, b, stride_b, n,
                                             acc);
  });
}

/// y[i] = fma_step(p, alpha, x[i·stride_x], y[i]) for i = 0..n-1: the
/// column-wise form of dot, for accumulators held across calls.
inline void axpy(Precision p, float alpha, const float* x,
                 std::size_t stride_x, float* y, std::size_t n) {
  detail::with_policy(p, [&](auto pol) {
    detail::axpy<decltype(pol)::value>(alpha, x, stride_x, y, n);
  });
}

/// Round a finished accumulator back to the storage type of the policy
/// (the "convert FP32 back to FP16 for masking/softmax" step of §3.3).
[[nodiscard]] inline float round_to_storage(Precision p, float x) {
  switch (p) {
    case Precision::kFp32:
      return x;
    case Precision::kPureFp16:
    case Precision::kMixed:
      return static_cast<float>(half(x));
    case Precision::kBf16Mixed:
      return static_cast<float>(bfloat16(x));
  }
  return x;
}

}  // namespace et::numeric
