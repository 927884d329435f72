#pragma once
// Multi-head self-attention (the MHA block of paper Fig. 1) with full
// backward.  Input/output are (batch * seq) x dim row blocks.

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"

namespace tilesparse {

class MultiHeadAttention : public Layer {
 public:
  MultiHeadAttention(std::string name, std::size_t dim, std::size_t heads,
                     std::size_t seq, Rng& rng);

  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  std::vector<Param*> params() override;

  /// The four prunable projection weights (Q, K, V, output).
  std::vector<Param*> projection_weights();

  /// The owning Linear layers, aligned 1:1 with projection_weights();
  /// exposed so the packed-weight inference path can rebind them.
  std::vector<Linear*> projection_layers();

  /// Adds this block to an execution graph: the Q/K/V projections as
  /// three *independent* GEMM nodes (the scheduler overlaps them on
  /// separate streams — the paper's Fig. 7-4 assignment), a host node
  /// for the softmax(QK^T)V core, and the output projection.  Produces
  /// exactly what forward() produces; the block must outlive the graph.
  ExecGraph::NodeId add_to_graph(ExecGraph& graph, ExecGraph::SlotId in,
                                 ExecGraph::SlotId out);

 private:
  /// softmax(scale * Q K^T) V per (batch, head), writing every element
  /// of `context` (pre-sized to q.rows() x dim).  `probs`, when given,
  /// receives the probabilities — (batch * heads * seq) x seq rows, row
  /// (b * heads + h) * seq + s — for backward(); without it each row
  /// lives in a per-thread scratch row, so the graph path touches no
  /// member.  Shared by forward() and the graph host node so both paths
  /// are the same arithmetic.
  void attention_core(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                      MatrixF& context, MatrixF* probs) const;

  std::size_t dim_, heads_, seq_, head_dim_;
  Linear q_, k_, v_, out_;
  // Cached activations for backward.
  MatrixF q_act_, k_act_, v_act_;
  MatrixF attn_;  ///< softmax probabilities (attention_core's layout)
};

}  // namespace tilesparse
