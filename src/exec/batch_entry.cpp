#include "exec/batch_entry.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace tilesparse {

double BatchEntry::cost(std::size_t rows) const noexcept {
  const double m = macs(rows);
  const double b = static_cast<double>(weight_bytes());
  // Geometric blend of compute and weight traffic, floored at 1 so a
  // degenerate entry still charges something per member.
  return std::max(1.0, std::sqrt(std::max(1.0, m) * std::max(1.0, b)));
}

GraphBatchEntry::GraphBatchEntry(Config config) : config_(std::move(config)) {
  if (!config_.builder) {
    throw std::invalid_argument("GraphBatchEntry: null builder");
  }
  if (config_.input_cols == 0 || config_.group_rows_in == 0 ||
      config_.group_rows_out == 0) {
    throw std::invalid_argument("GraphBatchEntry: bad config shape");
  }
  if (config_.graph_cache_capacity == 0) config_.graph_cache_capacity = 1;
}

GraphBatchEntry::GraphList::iterator GraphBatchEntry::check_out(
    std::size_t rows) {
  std::lock_guard lock(mutex_);
  for (auto it = graphs_.begin(); it != graphs_.end(); ++it) {
    if (it->rows == rows && !it->busy) {
      it->busy = true;
      return it;
    }
  }
  CachedGraph entry;
  entry.rows = rows;
  entry.busy = true;
  entry.graph = std::make_unique<ExecGraph>();
  entry.input = entry.graph->add_slot(config_.name + ".in");
  entry.graph->mark_input(entry.input);
  entry.output = config_.builder(*entry.graph, entry.input, rows);
  entry.graph->mark_output(entry.output);
  graphs_.push_front(std::move(entry));
  return graphs_.begin();
}

void GraphBatchEntry::check_in(GraphList::iterator it) {
  std::lock_guard lock(mutex_);
  it->busy = false;
  graphs_.splice(graphs_.begin(), graphs_, it);  // move to MRU front
  std::size_t idle = 0;
  for (auto cur = graphs_.begin(); cur != graphs_.end();) {
    if (!cur->busy && ++idle > config_.graph_cache_capacity) {
      cur = graphs_.erase(cur);
    } else {
      ++cur;
    }
  }
}

MatrixF GraphBatchEntry::run(ExecScheduler& scheduler, const MatrixF& input) {
  if (input.rows() == 0 || input.rows() % config_.group_rows_in != 0 ||
      input.cols() != config_.input_cols) {
    throw std::invalid_argument("BatchEntry '" + config_.name +
                                "': input must be a non-empty multiple of " +
                                std::to_string(config_.group_rows_in) +
                                " rows x " +
                                std::to_string(config_.input_cols) + " cols");
  }
  // The graph is this caller's alone until check_in, so the run itself
  // holds no lock (see the reentrancy contract in the header).
  const GraphList::iterator cached = check_out(input.rows());
  MatrixF out;
  try {
    ExecGraph& graph = *cached->graph;
    MatrixF& in_slot = graph.slot(cached->input);
    in_slot.ensure_shape(input.rows(), input.cols());
    std::memcpy(in_slot.data(), input.data(),
                input.rows() * input.cols() * sizeof(float));
    scheduler.run(graph);
    out = graph.slot(cached->output);  // deep copy (owning matrix)
  } catch (...) {
    check_in(cached);
    throw;
  }
  check_in(cached);
  return out;
}

std::size_t GraphBatchEntry::cached_graphs() const {
  std::lock_guard lock(mutex_);
  return graphs_.size();
}

std::unique_ptr<GraphBatchEntry> make_gemm_entry(std::string name,
                                                 const PackedWeight* weight,
                                                 const MatrixF* bias) {
  if (weight == nullptr) {
    throw std::invalid_argument("make_gemm_entry: null weight");
  }
  GraphBatchEntry::Config config;
  config.name = std::move(name);
  config.input_cols = weight->k();
  config.output_cols = weight->n();
  config.macs_per_row =
      weight->macs(2) - weight->macs(1);  // per-row marginal MACs
  config.weight_bytes = weight->bytes();
  config.builder = [weight, bias](ExecGraph& graph, ExecGraph::SlotId input,
                                  std::size_t) {
    ExecGraph::SlotId out = graph.add_slot("out");
    graph.add_gemm("gemm", weight, input, out, ExecContext{}, bias);
    return out;
  };
  return std::make_unique<GraphBatchEntry>(std::move(config));
}

}  // namespace tilesparse
