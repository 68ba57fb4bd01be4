#include "src/solver/operator_clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/logging.h"
#include "src/support/trace.h"

namespace alpa {

std::vector<int> ForwardComputeOps(const Graph& graph) {
  std::vector<int> ops;
  for (const Operator& op : graph.ops()) {
    if (op.role == OpRole::kForward && op.type != OpType::kParameter &&
        op.type != OpType::kInput) {
      ops.push_back(op.id);
    }
  }
  return ops;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// C(i, k): bytes of distinct activation tensors consumed by fwd ops [i, k]
// (positions in `fwd`) but produced by fwd ops before position i. Parameters
// and raw inputs are not transferred between layers. Only a band is stored:
// row i holds C(i, k) for the k in [i, end(i)) where `in_band(i, k)` holds,
// which must be monotone (true for a prefix of k >= i).
class BoundaryBand {
 public:
  template <typename InBand>
  BoundaryBand(const Graph& graph, const std::vector<int>& fwd, InBand in_band) {
    static Metric* cells_metric = Metrics::Get("clustering/boundary_cells");
    const int k_ops = static_cast<int>(fwd.size());
    std::vector<int> position(static_cast<size_t>(graph.size()), -1);
    for (int p = 0; p < k_ops; ++p) {
      position[static_cast<size_t>(fwd[static_cast<size_t>(p)])] = p;
    }
    std::vector<int> counted(static_cast<size_t>(graph.size()), -1);
    row_begin_.reserve(static_cast<size_t>(k_ops) + 1);
    row_begin_.push_back(0);
    for (int i = 0; i < k_ops; ++i) {
      double bytes = 0.0;
      for (int k = i; k < k_ops && in_band(i, k); ++k) {
        for (int operand : graph.op(fwd[static_cast<size_t>(k)]).operands) {
          const Operator& producer = graph.op(operand);
          if (producer.type == OpType::kParameter || producer.type == OpType::kInput) {
            continue;
          }
          const int producer_pos = position[static_cast<size_t>(operand)];
          if (producer_pos >= 0 && producer_pos < i &&
              counted[static_cast<size_t>(operand)] != i) {
            counted[static_cast<size_t>(operand)] = i;
            bytes += static_cast<double>(producer.OutputBytes());
          }
        }
        cells_.push_back(bytes);
      }
      row_begin_.push_back(cells_.size());
    }
    cells_metric->Add(static_cast<int64_t>(cells_.size()));
  }

  // One past the last k stored in row i.
  int end(int i) const {
    return i + static_cast<int>(row_begin_[static_cast<size_t>(i) + 1] -
                                row_begin_[static_cast<size_t>(i)]);
  }
  double at(int i, int k) const {
    return cells_[row_begin_[static_cast<size_t>(i)] + static_cast<size_t>(k - i)];
  }

 private:
  std::vector<size_t> row_begin_;  // Row i is cells_[row_begin_[i], row_begin_[i + 1]).
  std::vector<double> cells_;
};

ClusteringResult ClusterEqualOperator(const std::vector<int>& fwd, int num_layers) {
  ClusteringResult result;
  const int k_ops = static_cast<int>(fwd.size());
  result.feasible = true;
  result.num_layers = std::min(num_layers, k_ops);
  result.layer_of_forward_op.resize(static_cast<size_t>(k_ops));
  for (int p = 0; p < k_ops; ++p) {
    result.layer_of_forward_op[static_cast<size_t>(p)] =
        std::min(result.num_layers - 1,
                 p * result.num_layers / std::max(1, k_ops));
  }
  return result;
}

// Eq. 5 DP under a hard FLOP cap; infeasible when no partition satisfies it.
ClusteringResult ClusterStrict(const Graph& graph, double delta, const std::vector<int>& fwd,
                               int num_layers) {
  const int k_ops = static_cast<int>(fwd.size());
  if (num_layers == k_ops) {
    // One op per layer is the only partition; skip the DP, computing just
    // the diagonal C(i, i) for the bottleneck.
    const BoundaryBand diagonal(graph, fwd, [](int i, int k) { return k == i; });
    ClusteringResult result;
    result.feasible = true;
    result.num_layers = num_layers;
    result.layer_of_forward_op.resize(static_cast<size_t>(k_ops));
    for (int i = 0; i < k_ops; ++i) {
      result.layer_of_forward_op[static_cast<size_t>(i)] = i;
      result.bottleneck_comm_bytes = std::max(result.bottleneck_comm_bytes, diagonal.at(i, i));
    }
    return result;
  }
  // --- Eq. 5 DP. ---
  static Metric* passes_metric = Metrics::Get("clustering/dp_passes");
  passes_metric->Add(1);
  std::vector<double> prefix_flops(static_cast<size_t>(k_ops) + 1, 0.0);
  double max_single = 0.0;
  for (int p = 0; p < k_ops; ++p) {
    const double flops = graph.op(fwd[static_cast<size_t>(p)]).flops;
    prefix_flops[static_cast<size_t>(p) + 1] = prefix_flops[static_cast<size_t>(p)] + flops;
    max_single = std::max(max_single, flops);
  }
  const double avg = prefix_flops.back() / num_layers;
  // Cap must admit at least single-op layers.
  const double flop_cap = std::max((1.0 + delta) * avg, max_single);
  auto layer_flops = [&](int i, int k) {
    return prefix_flops[static_cast<size_t>(k) + 1] - prefix_flops[static_cast<size_t>(i)];
  };
  auto deviation = [&](int i, int k) {
    const double d = layer_flops(i, k) - avg;
    return d * d;
  };
  // The DP only reads C(i, k) for layers [i, k] within the cap. Flops are
  // nonnegative, so layer_flops(i, k) grows with k and each row's band is a
  // prefix.
  const BoundaryBand boundary(graph, fwd,
                              [&](int i, int k) { return layer_flops(i, k) <= flop_cap; });

  // g[r][k]: clustering ops [0, k] into r layers. Primary objective: the
  // bottleneck communication (Eq. 5); secondary: sum of squared per-layer
  // FLOP deviations from the average (uniformity tie-break).
  struct Cell {
    double comm = kInf;
    double var = kInf;
    int split = -1;  // First op of the last layer.
  };
  std::vector<std::vector<Cell>> g(static_cast<size_t>(num_layers) + 1,
                                   std::vector<Cell>(static_cast<size_t>(k_ops)));

  for (int k = 0; k < boundary.end(0); ++k) {
    g[1][static_cast<size_t>(k)] = Cell{boundary.at(0, k), deviation(0, k), 0};
  }
  for (int r = 2; r <= num_layers; ++r) {
    for (int k = r - 1; k < k_ops; ++k) {
      Cell best;
      for (int i = k; i >= r - 1; --i) {
        if (k >= boundary.end(i)) {
          break;  // Layer [i, k] exceeds the cap, and so does every larger one.
        }
        const Cell& prev = g[static_cast<size_t>(r) - 1][static_cast<size_t>(i) - 1];
        if (!std::isfinite(prev.comm)) {
          continue;
        }
        const double comm = std::max(prev.comm, boundary.at(i, k));
        const double var = prev.var + deviation(i, k);
        if (comm < best.comm - 1e-9 || (std::abs(comm - best.comm) <= 1e-9 && var < best.var)) {
          best = Cell{comm, var, i};
        }
      }
      g[static_cast<size_t>(r)][static_cast<size_t>(k)] = best;
    }
  }

  ClusteringResult result;
  const Cell& final_cell = g[static_cast<size_t>(num_layers)][static_cast<size_t>(k_ops) - 1];
  if (!std::isfinite(final_cell.comm)) {
    return result;  // Infeasible under the FLOP cap.
  }
  result.feasible = true;
  result.num_layers = num_layers;
  result.bottleneck_comm_bytes = final_cell.comm;
  result.layer_of_forward_op.assign(static_cast<size_t>(k_ops), 0);
  int k = k_ops - 1;
  for (int r = num_layers; r >= 1; --r) {
    const Cell& cell = g[static_cast<size_t>(r)][static_cast<size_t>(k)];
    ALPA_CHECK_GE(cell.split, 0);
    for (int p = cell.split; p <= k; ++p) {
      result.layer_of_forward_op[static_cast<size_t>(p)] = r - 1;
    }
    k = cell.split - 1;
  }
  ALPA_CHECK_EQ(k, -1);
  return result;
}

}  // namespace

ClusteringResult ClusterOperators(const Graph& graph, const ClusteringOptions& options) {
  const std::vector<int> fwd = ForwardComputeOps(graph);
  const int k_ops = static_cast<int>(fwd.size());
  ALPA_CHECK_GT(k_ops, 0);
  const int num_layers = std::min(options.num_layers, k_ops);

  if (options.method == ClusteringMethod::kEqualOperator) {
    return ClusterEqualOperator(fwd, num_layers);
  }
  if (options.delta >= 16.0) {
    return ClusterStrict(graph, options.delta, fwd, num_layers);
  }
  // The FLOP cap can be infeasible when one op dominates (small MLPs):
  // relax delta progressively, then drop the cap (an unbounded-delta split
  // still beats equal-operator), then fall back to equal-operator splitting.
  // A larger delta only widens the cap, so a split feasible under any strict
  // delta is feasible unbounded too, and the unbounded DP runs only when
  // every strict one failed.
  for (double delta = options.delta; delta < 16.0; delta *= 2.0) {
    ClusteringResult result = ClusterStrict(graph, delta, fwd, num_layers);
    if (result.feasible) {
      return result;
    }
  }
  ClusteringResult result = ClusterStrict(graph, 1e9, fwd, num_layers);
  if (result.feasible) {
    return result;
  }
  return ClusterEqualOperator(fwd, num_layers);
}

void AssignLayers(Graph& graph, const ClusteringResult& clustering) {
  ALPA_CHECK(clustering.feasible);
  const std::vector<int> fwd = ForwardComputeOps(graph);
  ALPA_CHECK_EQ(fwd.size(), clustering.layer_of_forward_op.size());

  for (int id = 0; id < graph.size(); ++id) {
    graph.mutable_op(id).layer = -1;
  }
  for (size_t p = 0; p < fwd.size(); ++p) {
    graph.mutable_op(fwd[p]).layer = clustering.layer_of_forward_op[p];
  }
  // Backward ops follow their forward op; updates follow their parameter's
  // consumers. Two passes: first propagate to backward, then leaves.
  for (int id = 0; id < graph.size(); ++id) {
    Operator& op = graph.mutable_op(id);
    if (op.layer >= 0) {
      continue;
    }
    if (op.forward_id >= 0) {
      op.layer = graph.op(op.forward_id).layer;
    }
  }
  // Parameters and inputs: earliest consumer's layer.
  const auto consumers = graph.Consumers();
  for (int id = 0; id < graph.size(); ++id) {
    Operator& op = graph.mutable_op(id);
    if (op.layer >= 0 || (op.type != OpType::kParameter && op.type != OpType::kInput)) {
      continue;
    }
    int layer = std::numeric_limits<int>::max();
    for (int consumer : consumers[static_cast<size_t>(id)]) {
      if (graph.op(consumer).layer >= 0) {
        layer = std::min(layer, graph.op(consumer).layer);
      }
    }
    op.layer = (layer == std::numeric_limits<int>::max()) ? 0 : layer;
  }
  // Updates: the parameter's layer. A residual op gets the last layer,
  // which never raises the layer count, so it is read once.
  const int last_layer = std::max(graph.NumLayers() - 1, 0);
  for (int id = 0; id < graph.size(); ++id) {
    Operator& op = graph.mutable_op(id);
    if (op.layer < 0 && op.param_id >= 0) {
      op.layer = graph.op(op.param_id).layer;
    }
    if (op.layer < 0) {
      // Residual grad-accumulation or loss-side ops without forward link.
      op.layer = last_layer;
    }
  }
}

}  // namespace alpa
