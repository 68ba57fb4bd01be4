// The nine fig8 training graphs (GPT-1.3B/2.6B/6.7B, MoE-2.4B/10B/27B,
// WResNet-2B/4B/6.8B) with the microbatch sizes and stage-layer targets of
// bench/fig8_*.cc, for tests that check a pass on paper-sized graphs.
#ifndef TESTS_FIG8_GRAPHS_H_
#define TESTS_FIG8_GRAPHS_H_

#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/models/gpt.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"

namespace alpa {

struct Fig8Graph {
  std::string name;
  int target_layers = 0;
  Graph graph;
};

inline std::vector<Fig8Graph> BuildFig8Graphs() {
  std::vector<Fig8Graph> rows;
  for (const GptBenchmarkCase& c : GptPaperCases()) {
    if (c.num_gpus < 4 || c.num_gpus > 16) continue;
    GptConfig config = c.config;
    config.microbatch = 8;
    rows.push_back({c.name, c.num_gpus >= 8 ? 16 : 8, BuildGpt(config)});
  }
  for (const MoeBenchmarkCase& c : MoePaperCases()) {
    if (c.num_gpus < 8 || c.num_gpus > 32) continue;
    MoeConfig config = c.config;
    config.microbatch = 8;
    rows.push_back({c.name, static_cast<int>(config.num_layers), BuildMoe(config)});
  }
  for (const WideResNetBenchmarkCase& c : WideResNetPaperCases()) {
    if (c.num_gpus < 8 || c.num_gpus > 32) continue;
    WideResNetConfig config = c.config;
    config.microbatch = 24;
    rows.push_back({c.name, 16, BuildWideResNet(config)});
  }
  return rows;
}

}  // namespace alpa

#endif  // TESTS_FIG8_GRAPHS_H_
