#pragma once
// The inference row kernels: the non-GEMM glue of a transformer layer.
//
// The paper (Sec. VI, "Kernel Fusion") shows that once the GEMMs are
// sparse, the element-wise glue (GELU, LayerNorm, residual adds,
// softmax) decides how much of the GEMM speedup survives end to end.
// These kernels are that glue, written as pure functions: each reads
// its inputs, writes only the caller-owned destination, allocates
// nothing and keeps no state.  Any number of threads may therefore run
// them at once on disjoint destinations, which is what lets a model's
// graph run without a lock.  They run on the calling thread.
//
// The training layers (nn/layers, nn/attention) and the inference
// graph's host nodes call these same kernels, so forward() and a graph
// run are one implementation and produce the same bits.

#include <cstddef>
#include <span>

namespace tilesparse {

/// tanh-approximation GELU, out[i] = 0.5 x (1 + tanh(sqrt(2/pi) (x +
/// 0.044715 x^3))) for x = in[i]; `out` may alias `in` (in place).
/// tanh is the Eigen-style rational approximation: the argument is
/// clamped to +-7.90531, then a degree-13 odd polynomial is divided by
/// a degree-6 even one.  Against the same GELU with std::tanh the error
/// is at most 2e-6 relative to max(1, |reference|).  Dispatches on
/// active_simd_level(): AVX2+FMA eight lanes at a time, or a portable
/// loop evaluating the same rational with separate multiplies and adds.
/// An element's result depends only on its value and the level, never
/// on its position or on in.size().
void gelu(std::span<const float> in, std::span<float> out) noexcept;

/// Row LayerNorm: out = (in - mean) / sqrt(var + eps) * gamma + beta
/// (population variance).  Returns 1 / sqrt(var + eps).  `normalized`,
/// when non-empty, receives (in - mean) / sqrt(var + eps) — the
/// training cache.  `out` may alias `in`.
float layer_norm_row(std::span<const float> in, std::span<float> out,
                     std::span<const float> gamma, std::span<const float> beta,
                     float eps, std::span<float> normalized = {}) noexcept;

/// Residual add: out[i] = a[i] + b[i]; `out` may alias `a` or `b`.
void residual_add(std::span<const float> a, std::span<const float> b,
                  std::span<float> out) noexcept;

/// Numerically stable softmax of one row, in place.
void softmax_row(std::span<float> row) noexcept;

}  // namespace tilesparse
