// Equivalence of the one-pass ExtractStages against per-range extraction:
// ExtractStage and a reference copy of the original two-pass algorithm
// (copy in-range ops, then rescan the whole graph for boundary outputs).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/inter/stage_extraction.h"
#include "src/solver/operator_clustering.h"
#include "src/support/rng.h"
#include "tests/fig8_graphs.h"

namespace alpa {
namespace {

StageSubgraph RefExtractStage(const Graph& graph, int layer_begin, int layer_end) {
  StageSubgraph stage;
  stage.layer_begin = layer_begin;
  stage.layer_end = layer_end;
  stage.op_map.assign(static_cast<size_t>(graph.size()), -1);
  auto in_range = [&](const Operator& op) {
    return op.layer >= layer_begin && op.layer <= layer_end;
  };
  for (int id = 0; id < graph.size(); ++id) {
    const Operator& op = graph.op(id);
    if (!in_range(op)) {
      continue;
    }
    Operator copy = op;
    copy.operands.clear();
    for (int operand : op.operands) {
      int mapped = stage.op_map[static_cast<size_t>(operand)];
      if (mapped < 0) {
        const Operator& producer = graph.op(operand);
        Operator placeholder;
        placeholder.type = OpType::kInput;
        placeholder.role = producer.role;
        placeholder.name = producer.name + ".boundary";
        placeholder.shape = producer.shape;
        placeholder.dtype = producer.dtype;
        placeholder.layer = layer_begin;
        mapped = stage.graph.Append(std::move(placeholder));
        stage.reverse_map.push_back(-1);
        stage.op_map[static_cast<size_t>(operand)] = mapped;
        stage.inputs.push_back(BoundaryTensor{operand, producer.OutputBytes(),
                                              producer.role == OpRole::kForward});
      }
      copy.operands.push_back(mapped);
    }
    if (copy.forward_id >= 0) {
      copy.forward_id = stage.op_map[static_cast<size_t>(copy.forward_id)];
    }
    if (copy.param_id >= 0) {
      copy.param_id = stage.op_map[static_cast<size_t>(copy.param_id)];
    }
    const int new_id = stage.graph.Append(std::move(copy));
    stage.reverse_map.push_back(id);
    stage.op_map[static_cast<size_t>(id)] = new_id;
  }
  std::vector<char> reported(static_cast<size_t>(graph.size()), 0);
  for (int id = 0; id < graph.size(); ++id) {
    const Operator& op = graph.op(id);
    if (in_range(op)) {
      continue;
    }
    for (int operand : op.operands) {
      const Operator& producer = graph.op(operand);
      if (in_range(producer) && !reported[static_cast<size_t>(operand)]) {
        reported[static_cast<size_t>(operand)] = 1;
        stage.outputs.push_back(BoundaryTensor{operand, producer.OutputBytes(),
                                               producer.role == OpRole::kForward});
      }
    }
  }
  return stage;
}

void ExpectSameBoundary(const std::vector<BoundaryTensor>& a,
                        const std::vector<BoundaryTensor>& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].producer_op, b[i].producer_op) << where << " #" << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << where << " #" << i;
    EXPECT_EQ(a[i].forward, b[i].forward) << where << " #" << i;
  }
}

void ExpectSameStage(const StageSubgraph& a, const StageSubgraph& b, const std::string& where) {
  EXPECT_EQ(a.layer_begin, b.layer_begin) << where;
  EXPECT_EQ(a.layer_end, b.layer_end) << where;
  EXPECT_EQ(a.op_map, b.op_map) << where;
  EXPECT_EQ(a.reverse_map, b.reverse_map) << where;
  ExpectSameBoundary(a.inputs, b.inputs, where + " inputs");
  ExpectSameBoundary(a.outputs, b.outputs, where + " outputs");
  ASSERT_EQ(a.graph.size(), b.graph.size()) << where;
  for (int id = 0; id < a.graph.size(); ++id) {
    const Operator& x = a.graph.op(id);
    const Operator& y = b.graph.op(id);
    const std::string at = where + " op " + std::to_string(id);
    EXPECT_EQ(x.id, y.id) << at;
    EXPECT_EQ(x.type, y.type) << at;
    EXPECT_EQ(x.role, y.role) << at;
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.operands, y.operands) << at;
    EXPECT_EQ(x.shape, y.shape) << at;
    EXPECT_EQ(x.dtype, y.dtype) << at;
    EXPECT_EQ(x.einsum.output, y.einsum.output) << at;
    EXPECT_EQ(x.einsum.operands, y.einsum.operands) << at;
    EXPECT_EQ(x.einsum.extents, y.einsum.extents) << at;
    EXPECT_EQ(x.einsum.halo, y.einsum.halo) << at;
    EXPECT_EQ(x.flops, y.flops) << at;
    EXPECT_EQ(x.layer, y.layer) << at;
    EXPECT_EQ(x.forward_id, y.forward_id) << at;
    EXPECT_EQ(x.param_id, y.param_id) << at;
    EXPECT_EQ(x.weight_grad, y.weight_grad) << at;
  }
  EXPECT_EQ(StructuralHash(a.graph), StructuralHash(b.graph)) << where;
}

void ExpectMatchesPerRange(const Graph& graph, const std::vector<std::pair<int, int>>& ranges,
                           const std::string& where) {
  const std::vector<StageSubgraph> stages = ExtractStages(graph, ranges);
  ASSERT_EQ(stages.size(), ranges.size()) << where;
  for (size_t r = 0; r < ranges.size(); ++r) {
    const auto [begin, end] = ranges[r];
    const std::string at = where + " [" + std::to_string(begin) + "," + std::to_string(end) + "]";
    ExpectSameStage(stages[r], ExtractStage(graph, begin, end), at + " vs ExtractStage");
    ExpectSameStage(stages[r], RefExtractStage(graph, begin, end), at + " vs two-pass");
  }
}

TEST(StageExtraction, ExtractStagesMatchesPerRangeOnFig8Graphs) {
  Rng rng(1408);
  for (Fig8Graph& row : BuildFig8Graphs()) {
    ClusteringOptions options;
    options.num_layers = row.target_layers;
    AssignLayers(row.graph, ClusterOperators(row.graph, options));
    const int num_layers = row.graph.NumLayers();

    // One range per layer: the stage profiler's case.
    std::vector<std::pair<int, int>> per_layer;
    for (int l = 0; l < num_layers; ++l) {
      per_layer.emplace_back(l, l);
    }
    ExpectMatchesPerRange(row.graph, per_layer, row.name + " per-layer");

    // Random multi-layer ranges, the executor's case, sometimes leaving
    // layers out so that some ops belong to no range.
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::pair<int, int>> ranges;
      int begin = 0;
      while (begin < num_layers) {
        const int end = std::min(num_layers - 1,
                                 begin + static_cast<int>(rng.NextBounded(4)));
        if (trial % 2 == 0 || rng.NextBounded(3) != 0) {
          ranges.emplace_back(begin, end);
        }
        begin = end + 1;
      }
      if (trial == 3) {  // Ranges may reach past the graph's layers.
        ranges.emplace_back(num_layers, std::numeric_limits<int>::max());
        ranges.emplace_back(std::numeric_limits<int>::min(), -1);
      }
      ExpectMatchesPerRange(row.graph, ranges, row.name + " trial " + std::to_string(trial));
    }
  }
}

TEST(StageExtraction, ExtractStagesOfNoRangesIsEmpty) {
  EXPECT_TRUE(ExtractStages(Graph(), {}).empty());
}

}  // namespace
}  // namespace alpa
