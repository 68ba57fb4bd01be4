// Randomized equivalence of ClusterOperators against a reference copy of the
// original algorithm: the unbounded-delta DP first, then strict deltas, each
// over a dense K x K boundary table. The library runs strict deltas first
// over a banded table; every result field must match the reference bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/solver/operator_clustering.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "tests/fig8_graphs.h"

namespace alpa {
namespace {

// --- Reference: the original dense, unbounded-first clustering. ---

std::vector<std::vector<double>> RefBoundaryBytes(const Graph& graph,
                                                  const std::vector<int>& fwd) {
  const int k_ops = static_cast<int>(fwd.size());
  std::vector<int> position(static_cast<size_t>(graph.size()), -1);
  for (int p = 0; p < k_ops; ++p) {
    position[static_cast<size_t>(fwd[static_cast<size_t>(p)])] = p;
  }
  std::vector<std::vector<double>> c(static_cast<size_t>(k_ops),
                                     std::vector<double>(static_cast<size_t>(k_ops), 0.0));
  std::vector<int> counted(static_cast<size_t>(graph.size()), -1);
  for (int i = 0; i < k_ops; ++i) {
    double bytes = 0.0;
    for (int k = i; k < k_ops; ++k) {
      for (int operand : graph.op(fwd[static_cast<size_t>(k)]).operands) {
        const Operator& producer = graph.op(operand);
        if (producer.type == OpType::kParameter || producer.type == OpType::kInput) {
          continue;
        }
        const int producer_pos = position[static_cast<size_t>(operand)];
        if (producer_pos >= 0 && producer_pos < i && counted[static_cast<size_t>(operand)] != i) {
          counted[static_cast<size_t>(operand)] = i;
          bytes += static_cast<double>(producer.OutputBytes());
        }
      }
      c[static_cast<size_t>(i)][static_cast<size_t>(k)] = bytes;
    }
  }
  return c;
}

ClusteringResult RefEqualOperator(int k_ops, int num_layers) {
  ClusteringResult result;
  result.feasible = true;
  result.num_layers = std::min(num_layers, k_ops);
  result.layer_of_forward_op.resize(static_cast<size_t>(k_ops));
  for (int p = 0; p < k_ops; ++p) {
    result.layer_of_forward_op[static_cast<size_t>(p)] =
        std::min(result.num_layers - 1, p * result.num_layers / std::max(1, k_ops));
  }
  return result;
}

ClusteringResult RefStrict(const Graph& graph, double delta, const std::vector<int>& fwd,
                           int num_layers) {
  const int k_ops = static_cast<int>(fwd.size());
  const std::vector<std::vector<double>> boundary = RefBoundaryBytes(graph, fwd);
  if (num_layers == k_ops) {
    ClusteringResult result;
    result.feasible = true;
    result.num_layers = num_layers;
    for (int i = 0; i < k_ops; ++i) {
      result.layer_of_forward_op.push_back(i);
      result.bottleneck_comm_bytes = std::max(
          result.bottleneck_comm_bytes, boundary[static_cast<size_t>(i)][static_cast<size_t>(i)]);
    }
    return result;
  }
  std::vector<double> prefix(static_cast<size_t>(k_ops) + 1, 0.0);
  double total = 0.0;
  double max_single = 0.0;
  for (int p = 0; p < k_ops; ++p) {
    const double f = graph.op(fwd[static_cast<size_t>(p)]).flops;
    total += f;
    max_single = std::max(max_single, f);
    prefix[static_cast<size_t>(p) + 1] = prefix[static_cast<size_t>(p)] + f;
  }
  const double avg = total / num_layers;
  const double cap = std::max((1.0 + delta) * avg, max_single);
  auto layer_flops = [&](int i, int k) {
    return prefix[static_cast<size_t>(k) + 1] - prefix[static_cast<size_t>(i)];
  };
  auto deviation = [&](int i, int k) {
    const double d = layer_flops(i, k) - avg;
    return d * d;
  };
  struct Cell {
    double comm = std::numeric_limits<double>::infinity();
    double var = std::numeric_limits<double>::infinity();
    int split = -1;
  };
  std::vector<std::vector<Cell>> g(static_cast<size_t>(num_layers) + 1,
                                   std::vector<Cell>(static_cast<size_t>(k_ops)));
  for (int k = 0; k < k_ops; ++k) {
    if (layer_flops(0, k) <= cap) {
      g[1][static_cast<size_t>(k)] = Cell{boundary[0][static_cast<size_t>(k)], deviation(0, k), 0};
    }
  }
  for (int r = 2; r <= num_layers; ++r) {
    for (int k = r - 1; k < k_ops; ++k) {
      Cell best;
      for (int i = k; i >= r - 1; --i) {
        if (layer_flops(i, k) > cap) {
          break;
        }
        const Cell& prev = g[static_cast<size_t>(r) - 1][static_cast<size_t>(i) - 1];
        if (!std::isfinite(prev.comm)) {
          continue;
        }
        const double comm =
            std::max(prev.comm, boundary[static_cast<size_t>(i)][static_cast<size_t>(k)]);
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
    return result;
  }
  result.feasible = true;
  result.num_layers = num_layers;
  result.bottleneck_comm_bytes = final_cell.comm;
  result.layer_of_forward_op.assign(static_cast<size_t>(k_ops), 0);
  int k = k_ops - 1;
  for (int r = num_layers; r >= 1; --r) {
    const Cell& cell = g[static_cast<size_t>(r)][static_cast<size_t>(k)];
    for (int p = cell.split; p <= k; ++p) {
      result.layer_of_forward_op[static_cast<size_t>(p)] = r - 1;
    }
    k = cell.split - 1;
  }
  return result;
}

// Which branch produced the reference result, to check the fallbacks are
// actually exercised.
enum class RefPath { kEqualOperator, kStrict, kUnbounded };

ClusteringResult RefClusterOperators(const Graph& graph, const ClusteringOptions& options,
                                     RefPath* path) {
  const std::vector<int> fwd = ForwardComputeOps(graph);
  const int k_ops = static_cast<int>(fwd.size());
  const int num_layers = std::min(options.num_layers, k_ops);
  if (options.method == ClusteringMethod::kEqualOperator) {
    *path = RefPath::kEqualOperator;
    return RefEqualOperator(k_ops, num_layers);
  }
  if (options.delta < 16.0) {
    ClusteringResult unbounded = RefStrict(graph, 1e9, fwd, num_layers);
    if (unbounded.feasible) {
      for (double delta = options.delta; delta < 16.0; delta *= 2.0) {
        ClusteringResult strict = RefStrict(graph, delta, fwd, num_layers);
        if (strict.feasible) {
          *path = RefPath::kStrict;
          return strict;
        }
      }
      *path = RefPath::kUnbounded;
      return unbounded;
    }
    *path = RefPath::kEqualOperator;
    return RefEqualOperator(k_ops, num_layers);
  }
  *path = RefPath::kStrict;
  return RefStrict(graph, options.delta, fwd, num_layers);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameClustering(const Graph& graph, const ClusteringOptions& options,
                          const std::string& what, RefPath* path) {
  const ClusteringResult expected = RefClusterOperators(graph, options, path);
  const ClusteringResult actual = ClusterOperators(graph, options);
  const std::string where = what + " L=" + std::to_string(options.num_layers) +
                            " delta=" + std::to_string(options.delta) + " method=" +
                            std::to_string(static_cast<int>(options.method));
  EXPECT_EQ(actual.feasible, expected.feasible) << where;
  EXPECT_EQ(actual.num_layers, expected.num_layers) << where;
  EXPECT_EQ(actual.layer_of_forward_op, expected.layer_of_forward_op) << where;
  EXPECT_EQ(Bits(actual.bottleneck_comm_bytes), Bits(expected.bottleneck_comm_bytes))
      << where << ": " << actual.bottleneck_comm_bytes << " vs "
      << expected.bottleneck_comm_bytes;
}

// A forward graph of `k_ops` compute ops over a few parameters and inputs:
// random shapes, some zero-FLOP ops, chain and skip edges, and integral or
// real FLOPs. With `dominating`,
// one op carries 2^53 + 2 FLOPs after a prefix of exactly 1, so its
// singleton layer's prefix difference rounds up past the largest single op
// and every strict delta fails once L >= 10.
Graph RandomForwardGraph(Rng& rng, int k_ops, bool dominating, bool integral) {
  Graph graph;
  std::vector<int> sources;
  const int num_sources = 1 + static_cast<int>(rng.NextBounded(3));
  for (int s = 0; s < num_sources; ++s) {
    const TensorShape shape({1 + static_cast<int64_t>(rng.NextBounded(16)), 8});
    sources.push_back(s % 2 == 0 ? graph.AddInput("in" + std::to_string(s), shape, DType::kF32)
                                 : graph.AddParameter("w" + std::to_string(s), shape,
                                                      DType::kF32));
  }
  const int heavy = dominating ? static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k_ops)))
                               : -1;
  std::vector<int> compute;
  for (int p = 0; p < k_ops; ++p) {
    Operator op;
    op.type = OpType::kElementwise;
    op.role = OpRole::kForward;
    op.name = "op" + std::to_string(p);
    op.shape = TensorShape({1 + static_cast<int64_t>(rng.NextBounded(64)),
                            1 + static_cast<int64_t>(rng.NextBounded(32))});
    op.dtype = rng.NextBounded(2) == 0 ? DType::kF32 : DType::kF16;
    if (dominating) {
      op.flops = p == heavy ? 9007199254740994.0 : (p < heavy ? (p == 0 ? 1.0 : 0.0)
                                                               : std::floor(rng.NextDouble(0, 50)));
    } else {
      // Small integers make a layer's FLOPs land exactly on the cap.
      op.flops = rng.NextBounded(5) == 0 ? 0.0
                 : integral           ? static_cast<double>(1 + rng.NextBounded(100))
                                      : rng.NextDouble(1.0, 1e6);
    }
    if (!compute.empty()) {
      op.operands.push_back(compute.back());
    }
    if (compute.size() > 1 && rng.NextBounded(3) == 0) {
      op.operands.push_back(compute[rng.NextBounded(compute.size())]);  // Skip edge.
    }
    if (op.operands.empty() || rng.NextBounded(4) == 0) {
      op.operands.push_back(sources[rng.NextBounded(sources.size())]);
    }
    compute.push_back(graph.Append(std::move(op)));
  }
  graph.Validate();
  return graph;
}

TEST(ClusteringEquivalence, RandomGraphsMatchDenseUnboundedFirstReference) {
  Rng rng(20221);
  const double deltas[] = {0.1, 0.5, 4.0, 16.0, 1e9};
  int unbounded_paths = 0;
  int strict_paths = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const int k_ops = 1 + static_cast<int>(rng.NextBounded(trial % 2 == 0 ? 20 : 200));
    const bool dominating = trial % 3 == 0;
    const Graph graph = RandomForwardGraph(rng, k_ops, dominating, trial % 4 < 2);
    std::vector<int> layer_counts = {1, k_ops, k_ops + 3,
                                     1 + static_cast<int>(rng.NextBounded(k_ops + 3))};
    if (dominating && k_ops >= 10) {
      layer_counts.push_back(10 + static_cast<int>(rng.NextBounded(k_ops - 9)));
    }
    for (int num_layers : layer_counts) {
      for (double delta : deltas) {
        for (ClusteringMethod method :
             {ClusteringMethod::kDpCommBalanced, ClusteringMethod::kEqualOperator}) {
          RefPath path;
          ExpectSameClustering(graph, ClusteringOptions{num_layers, delta, method},
                               "trial " + std::to_string(trial) + " K=" + std::to_string(k_ops),
                               &path);
          unbounded_paths += path == RefPath::kUnbounded ? 1 : 0;
          strict_paths += path == RefPath::kStrict ? 1 : 0;
        }
      }
    }
  }
  // Both the common strict path and the unbounded fallback were compared.
  EXPECT_GT(strict_paths, 0);
  EXPECT_GT(unbounded_paths, 0);
}

TEST(ClusteringEquivalence, Fig8GraphsMatchDenseUnboundedFirstReference) {
  for (const Fig8Graph& row : BuildFig8Graphs()) {
    for (int num_layers : {row.target_layers, 2, 32}) {
      RefPath path;
      ExpectSameClustering(row.graph, ClusteringOptions{num_layers, 0.5,
                                                        ClusteringMethod::kDpCommBalanced},
                           row.name, &path);
    }
  }
}

TEST(ClusteringEquivalence, OneBandedDpPassOnFig8Gpt) {
  const std::vector<Fig8Graph> rows = BuildFig8Graphs();
  const Fig8Graph& gpt = rows[1];  // GPT-2.6B, 16 target layers.
  const int64_t k_ops = static_cast<int64_t>(ForwardComputeOps(gpt.graph).size());
  const int64_t passes_before = Metrics::Value("clustering/dp_passes");
  const int64_t cells_before = Metrics::Value("clustering/boundary_cells");
  ClusteringOptions options;
  options.num_layers = gpt.target_layers;
  ASSERT_TRUE(ClusterOperators(gpt.graph, options).feasible);
  EXPECT_EQ(Metrics::Value("clustering/dp_passes") - passes_before, 1);
  const int64_t cells = Metrics::Value("clustering/boundary_cells") - cells_before;
  EXPECT_GT(cells, 0);
  EXPECT_LT(cells, k_ops * k_ops / 4) << "K=" << k_ops;
}

}  // namespace
}  // namespace alpa
