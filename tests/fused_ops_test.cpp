#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gemm/fused_ops.hpp"
#include "gemm/micro_kernel.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal();
  return v;
}

/// gelu()'s stated bound: |error| <= 2e-6 * max(1, |reference|).
constexpr double kGeluMaxRelError = 2e-6;

/// The GELU the kernel approximates, with std::tanh in double.
double gelu_reference(float x) {
  const double xd = x;
  return 0.5 * xd *
         (1.0 + std::tanh(0.7978845608028654 * (xd + 0.044715 * xd * xd * xd)));
}

/// Restores the SIMD level a test forced.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(active_simd_level()) {}
  ~SimdLevelGuard() { set_simd_level(saved_); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;

 private:
  SimdLevel saved_;
};

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() == SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  return levels;
}

TEST(FusedOps, ResidualAddSumsElementwise) {
  const auto a = random_vec(13, 1);
  const auto b = random_vec(13, 2);
  std::vector<float> out(13);
  residual_add(a, b, out);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], a[i] + b[i]);
  std::vector<float> in_place = a;
  residual_add(in_place, b, in_place);
  EXPECT_EQ(in_place, out);
}

TEST(FusedOps, LayerNormRowsHaveZeroMeanUnitVar) {
  const MatrixF x = random_matrix(8, 64, 2);
  MatrixF y(8, 64);
  std::vector<float> gamma(64, 1.0f), beta(64, 0.0f);
  for (std::size_t r = 0; r < x.rows(); ++r)
    layer_norm_row(x.row(r), y.row(r), gamma, beta, 1e-5f);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t c = 0; c < y.cols(); ++c) mean += y(r, c);
    mean /= y.cols();
    for (std::size_t c = 0; c < y.cols(); ++c) {
      const double d = y(r, c) - mean;
      var += d * d;
    }
    var /= y.cols();
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(FusedOps, LayerNormRowInPlaceAndTrainingCacheAgree) {
  const MatrixF x = random_matrix(1, 32, 3);
  const auto gamma = random_vec(32, 5);
  const auto beta = random_vec(32, 6);
  std::vector<float> out(32), normalized(32);
  const float inv =
      layer_norm_row(x.row(0), out, gamma, beta, 1e-5f, normalized);
  std::vector<float> in_place(x.row(0).begin(), x.row(0).end());
  EXPECT_EQ(layer_norm_row(in_place, in_place, gamma, beta, 1e-5f), inv);
  EXPECT_EQ(in_place, out);
  for (std::size_t j = 0; j < 32; ++j)
    EXPECT_EQ(out[j], normalized[j] * gamma[j] + beta[j]);
}

TEST(FusedOps, GeluKnownValues) {
  SimdLevelGuard guard;
  for (const SimdLevel level : available_levels()) {
    set_simd_level(level);
    std::vector<float> x{0.0f, 100.0f, -100.0f};
    gelu(x, x);
    EXPECT_FLOAT_EQ(x[0], 0.0f) << simd_level_name(level);
    EXPECT_NEAR(x[1], 100.0f, 1e-3f) << simd_level_name(level);  // identity
    EXPECT_NEAR(x[2], 0.0f, 1e-3f) << simd_level_name(level);    // zero
  }
}

TEST(FusedOps, GeluWithinBoundOfTanhReferenceAtEverySimdLevel) {
  // Every float in [-10, 10] at a 1e-4 step, at lengths that leave a
  // ragged tail (n % 8 != 0) for the eight-lane path.
  std::vector<float> x;
  for (int i = -100000; i <= 100000; ++i)
    x.push_back(static_cast<float>(i) * 1e-4f);
  ASSERT_NE(x.size() % 8, 0u);
  SimdLevelGuard guard;
  std::vector<std::vector<float>> outputs;
  for (const SimdLevel level : available_levels()) {
    set_simd_level(level);
    for (const std::size_t n : {x.size(), std::size_t{13}, std::size_t{5}}) {
      std::vector<float> y(n);
      gelu({x.data(), n}, y);
      double worst = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double ref = gelu_reference(x[i]);
        worst = std::max(worst,
                         std::fabs(y[i] - ref) / std::max(1.0, std::fabs(ref)));
      }
      EXPECT_LE(worst, kGeluMaxRelError)
          << simd_level_name(level) << " n=" << n;
    }
    std::vector<float> y(x.size());
    gelu(x, y);
    outputs.push_back(std::move(y));
  }
  // The AVX2 and portable paths evaluate one rational; they agree to
  // within the same bound.
  for (std::size_t l = 1; l < outputs.size(); ++l) {
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(gelu_reference(x[i])));
      worst = std::max(worst, std::fabs(outputs[l][i] - outputs[0][i]) / scale);
    }
    EXPECT_LE(worst, kGeluMaxRelError);
  }
}

TEST(FusedOps, GeluBitsDependOnlyOnTheValue) {
  // A row's bits must not depend on where it sits in a wider buffer:
  // batched rows of a graph are bit-identical to solo rows.
  const auto values = random_vec(29, 11);
  SimdLevelGuard guard;
  for (const SimdLevel level : available_levels()) {
    set_simd_level(level);
    std::vector<float> whole(values.size());
    gelu(values, whole);
    for (std::size_t offset = 1; offset < 9; ++offset) {
      std::vector<float> part(values.begin() + offset, values.end());
      gelu(part, part);  // in place, shifted lanes, different tail
      EXPECT_EQ(std::memcmp(part.data(), whole.data() + offset,
                            part.size() * sizeof(float)),
                0)
          << simd_level_name(level) << " offset " << offset;
    }
  }
}

TEST(FusedOps, SoftmaxRowsSumToOne) {
  MatrixF x = random_matrix(7, 13, 9);
  for (std::size_t r = 0; r < x.rows(); ++r) softmax_row(x.row(r));
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      EXPECT_GT(x(r, c), 0.0f);
      sum += x(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(FusedOps, SoftmaxNumericallyStableForLargeInputs) {
  std::vector<float> x{1000.0f, 1000.0f, -1000.0f};
  softmax_row(x);
  EXPECT_NEAR(x[0], 0.5f, 1e-5f);
  EXPECT_FALSE(std::isnan(x[2]));
}

}  // namespace
}  // namespace tilesparse
