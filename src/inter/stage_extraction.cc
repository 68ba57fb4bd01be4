#include "src/inter/stage_extraction.h"

#include <algorithm>

#include "src/support/logging.h"

namespace alpa {

std::vector<StageSubgraph> ExtractStages(const Graph& graph,
                                         const std::vector<std::pair<int, int>>& ranges) {
  const int n = graph.size();
  // range_of_layer[layer - lo]: index of the range owning `layer`, or -1, over
  // the graph's own layer span [lo, hi] (a range may reach past it).
  int lo = 0;
  int hi = -1;
  for (int id = 0; id < n; ++id) {
    const int layer = graph.op(id).layer;
    lo = id == 0 ? layer : std::min(lo, layer);
    hi = id == 0 ? layer : std::max(hi, layer);
  }
  std::vector<int> range_of_layer(static_cast<size_t>(hi - lo + 1), -1);
  std::vector<StageSubgraph> stages(ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    StageSubgraph& stage = stages[r];
    stage.layer_begin = ranges[r].first;
    stage.layer_end = ranges[r].second;
    ALPA_CHECK_LE(stage.layer_begin, stage.layer_end);
    stage.op_map.assign(static_cast<size_t>(n), -1);
    for (int l = std::max(stage.layer_begin, lo); l <= std::min(stage.layer_end, hi); ++l) {
      int& owner = range_of_layer[static_cast<size_t>(l - lo)];
      ALPA_CHECK_EQ(owner, -1) << "ExtractStages ranges overlap at layer " << l;
      owner = static_cast<int>(r);
    }
  }
  std::vector<int> range_of_op(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    range_of_op[static_cast<size_t>(id)] =
        range_of_layer[static_cast<size_t>(graph.op(id).layer - lo)];
  }

  // One pass in id order. An in-range op is copied into its stage, with
  // out-of-stage operands materialized as placeholder inputs; an operand
  // produced in another range (or consumed outside every range) becomes a
  // boundary output of the producer's stage, reported once per producer in
  // (consumer id, operand) order.
  std::vector<char> reported(static_cast<size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    const Operator& op = graph.op(id);
    const int r = range_of_op[static_cast<size_t>(id)];
    for (int operand : op.operands) {
      const int producer_range = range_of_op[static_cast<size_t>(operand)];
      if (producer_range >= 0 && producer_range != r && !reported[static_cast<size_t>(operand)]) {
        reported[static_cast<size_t>(operand)] = 1;
        const Operator& producer = graph.op(operand);
        stages[static_cast<size_t>(producer_range)].outputs.push_back(BoundaryTensor{
            operand, producer.OutputBytes(), producer.role == OpRole::kForward});
      }
    }
    if (r < 0) {
      continue;
    }
    StageSubgraph& stage = stages[static_cast<size_t>(r)];
    Operator copy = op;
    copy.operands.clear();
    for (int operand : op.operands) {
      int mapped = stage.op_map[static_cast<size_t>(operand)];
      if (mapped < 0) {
        // Producer lives outside the stage: materialize a placeholder input.
        // An in-range operand maps to -1 only if the graph is not
        // topologically ordered; Validate() precludes this.
        ALPA_CHECK_NE(range_of_op[static_cast<size_t>(operand)], r)
            << "Stage extraction found unmapped in-range operand";
        const Operator& producer = graph.op(operand);
        Operator placeholder;
        placeholder.type = OpType::kInput;
        placeholder.role = producer.role;
        placeholder.name = producer.name + ".boundary";
        placeholder.shape = producer.shape;
        placeholder.dtype = producer.dtype;
        placeholder.layer = stage.layer_begin;
        mapped = stage.graph.Append(std::move(placeholder));
        stage.reverse_map.push_back(-1);
        stage.op_map[static_cast<size_t>(operand)] = mapped;
        stage.inputs.push_back(BoundaryTensor{operand, producer.OutputBytes(),
                                              producer.role == OpRole::kForward});
      }
      copy.operands.push_back(mapped);
    }
    // Remap auxiliary links.
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

  for (const StageSubgraph& stage : stages) {
    stage.graph.Validate();
  }
  return stages;
}

StageSubgraph ExtractStage(const Graph& graph, int layer_begin, int layer_end) {
  return std::move(ExtractStages(graph, {{layer_begin, layer_end}}).front());
}

}  // namespace alpa
