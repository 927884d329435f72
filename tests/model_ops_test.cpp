#include <gtest/gtest.h>

#include "gemm/fused_ops.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/model_ops.hpp"
#include "workload/shapes.hpp"

namespace tilesparse {
namespace {

std::size_t count_kind(const std::vector<E2eOp>& ops, E2eOp::Kind kind) {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.kind == kind;
  return n;
}

TEST(BertOps, Has72PrunableGemms) {
  const auto ops = build_bert_ops(128, 1);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemm), 72u);
}

TEST(BertOps, GemmShapesMatchShapeList) {
  const auto ops = build_bert_ops(128, 1);
  const auto gemms = bert_base_gemms(128, 1);
  std::size_t gemm_index = 0;
  for (const auto& op : ops) {
    if (op.kind != E2eOp::Kind::kGemm) continue;
    ASSERT_LT(gemm_index, gemms.size());
    EXPECT_EQ(op.shape.m, gemms[gemm_index].shape.m);
    EXPECT_EQ(op.shape.n, gemms[gemm_index].shape.n);
    EXPECT_EQ(op.shape.k, gemms[gemm_index].shape.k);
    ++gemm_index;
  }
  EXPECT_EQ(gemm_index, gemms.size());
}

TEST(BertOps, PatternsAttachInOrder) {
  const auto gemms = bert_base_gemms(128, 1);
  std::vector<TilePattern> patterns;
  Rng rng(1);
  for (const auto& gemm : gemms) {
    MatrixF scores(gemm.shape.k, gemm.shape.n);
    fill_uniform(scores, rng, 0.1f, 1.0f);
    patterns.push_back(tw_pattern_from_scores(scores, 0.5, 128));
  }
  std::vector<const TilePattern*> ptrs;
  for (const auto& p : patterns) ptrs.push_back(&p);
  const auto ops = build_bert_ops(128, 1, &ptrs);
  std::size_t index = 0;
  for (const auto& op : ops) {
    if (op.kind != E2eOp::Kind::kGemm) continue;
    EXPECT_EQ(op.pattern, ptrs[index]);
    // Pattern dims must match the GEMM's weight dims.
    EXPECT_EQ(op.pattern->k, op.shape.k);
    EXPECT_EQ(op.pattern->n, op.shape.n);
    ++index;
  }
}

TEST(BertOps, HasFixedGemmsAndTransposes) {
  const auto ops = build_bert_ops(128, 1);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemmFixed), 24u);  // 2 per layer
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kTranspose), 12u);  // 1 per layer
}

TEST(NmtOps, Has10PrunableGemms) {
  const auto ops = build_nmt_ops(32, 32);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemm), 10u);
}

TEST(NmtOps, ElementwiseBytesArePositive) {
  for (const auto& op : build_nmt_ops(32, 32)) {
    if (op.kind == E2eOp::Kind::kElementwise) EXPECT_GT(op.bytes, 0.0);
  }
}

// ---- fused_ops vs nn layers: the layers run the fused_ops kernels, so
// a layer forward and a direct kernel call give the same bits.

TEST(Consistency, LayerNormLayerMatchesFusedKernel) {
  Rng rng(2);
  MatrixF x(6, 32);
  fill_normal(x, rng, 2.0f, 3.0f);
  MatrixF x2 = x;

  LayerNorm layer("ln", 32);
  const MatrixF y_layer = layer.forward(x);

  std::vector<float> gamma(32, 1.0f), beta(32, 0.0f);
  for (std::size_t r = 0; r < x2.rows(); ++r)
    layer_norm_row(x2.row(r), x2.row(r), gamma, beta, 1e-5f);
  EXPECT_EQ(max_abs_diff(y_layer, x2), 0.0f);
}

TEST(Consistency, GeluLayerMatchesFusedKernel) {
  Rng rng(3);
  MatrixF x(4, 16);
  fill_normal(x, rng);
  MatrixF x2 = x;
  Gelu layer;
  const MatrixF y_layer = layer.forward(x);
  gelu(x2.flat(), x2.flat());
  EXPECT_EQ(max_abs_diff(y_layer, x2), 0.0f);
}

TEST(Consistency, SoftmaxRowsMatchesLossSoftmax) {
  // softmax_row vs the softmax inside cross-entropy: probabilities must
  // agree.  Reconstruct p from the CE gradient: grad = (p - 1[label])/B.
  Rng rng(4);
  MatrixF logits(5, 7);
  fill_normal(logits, rng);
  MatrixF probs = logits;
  for (std::size_t r = 0; r < probs.rows(); ++r) softmax_row(probs.row(r));

  MatrixF dlogits;
  const std::vector<int> labels{0, 1, 2, 3, 4};
  softmax_cross_entropy(logits, labels, dlogits);
  const float batch = 5.0f;
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      const float indicator = (static_cast<int>(c) == labels[r]) ? 1.0f : 0.0f;
      const float p_from_grad = dlogits(r, c) * batch + indicator;
      EXPECT_NEAR(p_from_grad, probs(r, c), 1e-5f);
    }
  }
}

}  // namespace
}  // namespace tilesparse
