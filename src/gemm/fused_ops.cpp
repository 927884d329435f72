#include "gemm/fused_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gemm/micro_kernel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tilesparse {
namespace {

constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCubic = 0.044715f;

// tanh(x) ~ x P(x^2) / Q(x^2) on [-kTanhClamp, kTanhClamp], the
// minimax rational Eigen uses for float ptanh; beyond the clamp the
// quotient has reached +-1 to float precision.
constexpr float kTanhClamp = 7.90531110763549805f;
constexpr float kAlpha1 = 4.89352455891786e-03f;
constexpr float kAlpha3 = 6.37261928875436e-04f;
constexpr float kAlpha5 = 1.48572235717979e-05f;
constexpr float kAlpha7 = 5.12229709037114e-08f;
constexpr float kAlpha9 = -8.60467152213735e-11f;
constexpr float kAlpha11 = 2.00018790482477e-13f;
constexpr float kAlpha13 = -2.76076847742355e-16f;
constexpr float kBeta0 = 4.89352518554385e-03f;
constexpr float kBeta2 = 2.26843463243900e-03f;
constexpr float kBeta4 = 1.18534705686654e-04f;
constexpr float kBeta6 = 1.19825839466702e-06f;

inline float tanh_rational(float x) noexcept {
  x = std::min(std::max(x, -kTanhClamp), kTanhClamp);
  const float x2 = x * x;
  float p = x2 * kAlpha13 + kAlpha11;
  p = x2 * p + kAlpha9;
  p = x2 * p + kAlpha7;
  p = x2 * p + kAlpha5;
  p = x2 * p + kAlpha3;
  p = x2 * p + kAlpha1;
  p = x * p;
  float q = x2 * kBeta6 + kBeta4;
  q = x2 * q + kBeta2;
  q = x2 * q + kBeta0;
  return p / q;
}

void gelu_scalar(const float* in, float* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float inner = kSqrt2OverPi * (x + kGeluCubic * x * x * x);
    out[i] = 0.5f * x * (1.0f + tanh_rational(inner));
  }
}

#ifdef TILESPARSE_X86_DISPATCH
__attribute__((target("avx2,fma"))) inline __m256 gelu8(__m256 x) noexcept {
  const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
  __m256 t = _mm256_mul_ps(_mm256_set1_ps(kSqrt2OverPi),
                           _mm256_fmadd_ps(_mm256_set1_ps(kGeluCubic), x3, x));
  t = _mm256_min_ps(_mm256_max_ps(t, _mm256_set1_ps(-kTanhClamp)),
                    _mm256_set1_ps(kTanhClamp));
  const __m256 t2 = _mm256_mul_ps(t, t);
  __m256 p = _mm256_fmadd_ps(t2, _mm256_set1_ps(kAlpha13),
                             _mm256_set1_ps(kAlpha11));
  p = _mm256_fmadd_ps(t2, p, _mm256_set1_ps(kAlpha9));
  p = _mm256_fmadd_ps(t2, p, _mm256_set1_ps(kAlpha7));
  p = _mm256_fmadd_ps(t2, p, _mm256_set1_ps(kAlpha5));
  p = _mm256_fmadd_ps(t2, p, _mm256_set1_ps(kAlpha3));
  p = _mm256_fmadd_ps(t2, p, _mm256_set1_ps(kAlpha1));
  p = _mm256_mul_ps(t, p);
  __m256 q = _mm256_fmadd_ps(t2, _mm256_set1_ps(kBeta6),
                             _mm256_set1_ps(kBeta4));
  q = _mm256_fmadd_ps(t2, q, _mm256_set1_ps(kBeta2));
  q = _mm256_fmadd_ps(t2, q, _mm256_set1_ps(kBeta0));
  const __m256 tanh = _mm256_div_ps(p, q);
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), tanh));
}

__attribute__((target("avx2,fma"))) void gelu_avx2(const float* in,
                                                   float* out,
                                                   std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, gelu8(_mm256_loadu_ps(in + i)));
  if (i < n) {
    // The tail runs the same lane arithmetic under a mask, so no
    // element's bits depend on where it sits in the buffer.
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - i)), lane);
    _mm256_maskstore_ps(out + i, mask, gelu8(_mm256_maskload_ps(in + i, mask)));
  }
}
#endif  // TILESPARSE_X86_DISPATCH

}  // namespace

void gelu(std::span<const float> in, std::span<float> out) noexcept {
  assert(in.size() == out.size());
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    gelu_avx2(in.data(), out.data(), in.size());
    return;
  }
#endif
  gelu_scalar(in.data(), out.data(), in.size());
}

float layer_norm_row(std::span<const float> in, std::span<float> out,
                     std::span<const float> gamma, std::span<const float> beta,
                     float eps, std::span<float> normalized) noexcept {
  const std::size_t n = in.size();
  assert(out.size() == n && gamma.size() == n && beta.size() == n);
  assert(normalized.empty() || normalized.size() == n);
  float mean = 0.0f;
  for (std::size_t j = 0; j < n; ++j) mean += in[j];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    const float d = in[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::size_t j = 0; j < n; ++j) {
    const float norm = (in[j] - mean) * inv;
    if (!normalized.empty()) normalized[j] = norm;
    out[j] = norm * gamma[j] + beta[j];
  }
  return inv;
}

void residual_add(std::span<const float> a, std::span<const float> b,
                  std::span<float> out) noexcept {
  assert(a.size() == out.size() && b.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] + b[i];
}

void softmax_row(std::span<float> row) noexcept {
  const std::size_t n = row.size();
  float maxv = row[0];
  for (std::size_t j = 1; j < n; ++j) maxv = std::max(maxv, row[j]);
  float sum = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - maxv);
    sum += row[j];
  }
  const float inv = 1.0f / sum;
  for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
}

}  // namespace tilesparse
