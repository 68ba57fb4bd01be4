// Extraction of per-stage subgraphs from a layer-tagged training graph.
//
// A stage owns every op (forward, backward, update) whose layer tag falls in
// [layer_begin, layer_end] — realizing the forward/backward colocation
// constraint (5.1). Tensors produced outside the stage become kInput
// placeholders; the tensors a stage exchanges with its neighbours are
// reported as boundary descriptors, which the runtime turns into cross-mesh
// resharding (6).
#ifndef SRC_INTER_STAGE_EXTRACTION_H_
#define SRC_INTER_STAGE_EXTRACTION_H_

#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace alpa {

struct BoundaryTensor {
  int producer_op = -1;  // Op id in the FULL graph.
  int64_t bytes = 0;
  bool forward = true;  // Forward activation vs backward gradient.
};

struct StageSubgraph {
  Graph graph;
  int layer_begin = 0;
  int layer_end = 0;
  // full graph op id -> stage graph op id (-1 if absent).
  std::vector<int> op_map;
  // stage graph op id -> full graph op id (-1 for placeholders).
  std::vector<int> reverse_map;
  // Tensors received from earlier stages (forward) / later stages (grads).
  std::vector<BoundaryTensor> inputs;
  // Tensors sent to later stages (forward) / earlier stages (grads).
  std::vector<BoundaryTensor> outputs;
};

// Extracts one subgraph per disjoint layer range [begin, end] (inclusive)
// in a single pass over `graph`; result i is what ExtractStage would return
// for ranges[i].
std::vector<StageSubgraph> ExtractStages(const Graph& graph,
                                         const std::vector<std::pair<int, int>>& ranges);

// Extracts the subgraph of layers [begin, end] (inclusive).
StageSubgraph ExtractStage(const Graph& graph, int layer_begin, int layer_end);

}  // namespace alpa

#endif  // SRC_INTER_STAGE_EXTRACTION_H_
