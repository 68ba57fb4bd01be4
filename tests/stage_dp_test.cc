#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "src/mesh/submesh.h"
#include "src/solver/stage_dp.h"
#include "src/support/rng.h"

namespace alpa {
namespace {

// The unpruned stage DP: every (k, s, end, shape, d) transition of Eq. 3,
// including those whose rest state is unreachable. SolveStageDp skips
// exactly the transitions that read a +inf rest, so it must agree with this
// reference bit for bit while walking fewer transitions.
StageDpResult ReferenceStageDp(int num_layers, int num_microbatches, const ClusterSpec& cluster,
                               const std::vector<SubmeshShape>& shapes,
                               const StageProfileFn& profile, const StageDpOptions& options) {
  const int total_devices = cluster.num_devices();
  const double device_memory = options.device_memory_override > 0.0
                                   ? options.device_memory_override
                                   : cluster.device.memory_bytes;
  int max_stages = std::min(num_layers, total_devices);
  if (options.max_stages > 0) {
    max_stages = std::min(max_stages, options.max_stages);
  }
  StageDpResult result;
  const int num_shapes = static_cast<int>(shapes.size());
  const auto pidx = [&](int begin, int end, int shape) {
    return (static_cast<size_t>(begin) * num_layers + end) * num_shapes + shape;
  };
  const auto effective = [num_microbatches](const StageProfile& p) {
    return p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches) +
           1e-18 * (p.weight_bytes + p.act_bytes_per_microbatch);
  };
  std::vector<StageProfile> profiles(static_cast<size_t>(num_layers) * num_layers * num_shapes);
  std::vector<double> tmax_candidates;
  for (int begin = 0; begin < num_layers; ++begin) {
    for (int end = begin; end < num_layers; ++end) {
      for (int shape = 0; shape < num_shapes; ++shape) {
        profiles[pidx(begin, end, shape)] = profile(begin, end, shape);
        if (std::isfinite(profiles[pidx(begin, end, shape)].t_intra)) {
          tmax_candidates.push_back(effective(profiles[pidx(begin, end, shape)]));
        }
      }
    }
  }
  if (tmax_candidates.empty()) {
    return result;
  }
  std::sort(tmax_candidates.begin(), tmax_candidates.end());
  if (options.max_tmax_candidates > 0 &&
      static_cast<int>(tmax_candidates.size()) > options.max_tmax_candidates) {
    if (options.max_tmax_candidates == 1) {
      tmax_candidates = {tmax_candidates.back()};
    } else {
      std::vector<double> sampled;
      const double step = static_cast<double>(tmax_candidates.size() - 1) /
                          (options.max_tmax_candidates - 1);
      for (int i = 0; i < options.max_tmax_candidates; ++i) {
        sampled.push_back(
            tmax_candidates[static_cast<size_t>(static_cast<double>(i) * step + 0.5)]);
      }
      tmax_candidates = std::move(sampled);
    }
  }
  const auto index = [&](int s, int k, int d) {
    return (static_cast<size_t>(s) * (num_layers + 1) + k) * (total_devices + 1) + d;
  };
  const size_t table_size =
      static_cast<size_t>(max_stages + 1) * (num_layers + 1) * (total_devices + 1);
  std::vector<double> f(table_size);
  std::vector<int> choice_end(table_size);
  std::vector<int> choice_shape(table_size);
  double last_tmax = -kInfCost;
  for (double tmax : tmax_candidates) {
    if (tmax - last_tmax < options.epsilon) {
      continue;
    }
    last_tmax = tmax;
    ++result.num_tmax_tried;
    if (result.feasible && (num_microbatches - 1) * tmax >= result.total_latency) {
      break;
    }
    std::fill(f.begin(), f.end(), kInfCost);
    f[index(0, num_layers, 0)] = 0.0;
    for (int k = num_layers - 1; k >= 0; --k) {
      for (int s = 1; s <= max_stages; ++s) {
        for (int end = k; end < num_layers; ++end) {
          for (int shape = 0; shape < num_shapes; ++shape) {
            const StageProfile& p = profiles[pidx(k, end, shape)];
            const double t_eff = effective(p);
            if (!(t_eff <= tmax + options.epsilon)) {
              continue;
            }
            if (p.weight_bytes +
                    std::min(s, num_microbatches) * p.act_bytes_per_microbatch +
                    p.work_bytes >
                device_memory) {
              continue;
            }
            const int stage_devices = shapes[static_cast<size_t>(shape)].num_devices();
            for (int d = stage_devices; d <= total_devices; ++d) {
              ++result.dp_transitions;
              const double rest = f[index(s - 1, end + 1, d - stage_devices)];
              if (!std::isfinite(rest)) {
                continue;
              }
              const size_t idx = index(s, k, d);
              if (t_eff + rest < f[idx]) {
                f[idx] = t_eff + rest;
                choice_end[idx] = end;
                choice_shape[idx] = shape;
              }
            }
          }
        }
      }
    }
    for (int s = 1; s <= max_stages; ++s) {
      const double sum_latency = f[index(s, 0, total_devices)];
      if (!std::isfinite(sum_latency)) {
        continue;
      }
      std::vector<StageAssignment> stages;
      double realized_max = 0.0;
      int k = 0;
      int d = total_devices;
      int remaining = s;
      while (k < num_layers) {
        const size_t idx = index(remaining, k, d);
        const int end = choice_end[idx];
        const int shape = choice_shape[idx];
        const StageProfile& p = profiles[pidx(k, end, shape)];
        stages.push_back(StageAssignment{k, end, shape, p.t_intra});
        realized_max = std::max(
            realized_max,
            p.t_intra + p.t_per_iteration / static_cast<double>(num_microbatches));
        d -= shapes[static_cast<size_t>(shape)].num_devices();
        k = end + 1;
        --remaining;
      }
      const double total =
          sum_latency + static_cast<double>(num_microbatches - 1) * realized_max;
      if (total < result.total_latency) {
        result.feasible = true;
        result.total_latency = total;
        result.stage_latency_sum = sum_latency;
        result.max_stage_latency = realized_max;
        result.stages = std::move(stages);
      }
    }
  }
  return result;
}

// A seeded random profile table over (begin, end, shape). Latencies and
// bytes are quantized, and a copied variant often repeats its original's
// profile exactly, so equal-cost alternatives (and with them the DP's tie
// order) are common; some entries are +inf, some exceed device memory, and
// B is often below the stage count, where in-flight activations cap at B.
struct RandomInstance {
  int num_layers = 1;
  int num_microbatches = 1;
  ClusterSpec cluster;
  std::vector<SubmeshShape> shapes;
  std::vector<StageProfile> table;
  StageDpOptions options;

  StageProfileFn Profile() const {
    return [this](int begin, int end, int shape) {
      const size_t num_shapes = shapes.size();
      return table[(static_cast<size_t>(begin) * num_layers + end) * num_shapes + shape];
    };
  }
};

RandomInstance MakeRandomInstance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance instance;
  const int hosts = 1 + static_cast<int>(rng.NextBounded(3));
  const int devices_per_host = 1 << rng.NextBounded(4);  // 1, 2, 4 or 8.
  instance.cluster = ClusterSpec::AwsP3(hosts, devices_per_host);
  // Variants: each physical shape appears 1-3 times, like the profiler's
  // logical-shape x memory-mode expansion.
  std::vector<bool> is_copy;
  for (const SubmeshShape& shape : EnumerateSubmeshShapes(instance.cluster)) {
    const int copies = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < copies; ++c) {
      instance.shapes.push_back(shape);
      is_copy.push_back(c > 0);
    }
  }
  instance.num_layers = 1 + static_cast<int>(rng.NextBounded(12));
  instance.num_microbatches = 1 + static_cast<int>(rng.NextBounded(rng.NextBounded(2) ? 64 : 4));
  const int cap_choices[] = {0, 1, 2, 64};
  instance.options.max_tmax_candidates = cap_choices[rng.NextBounded(4)];
  instance.options.max_stages =
      rng.NextBounded(2) == 0 ? 0 : 1 + static_cast<int>(rng.NextBounded(instance.num_layers));
  const double memory = instance.cluster.device.memory_bytes;
  const auto bytes = [&](double fraction) { return memory * std::round(64 * fraction) / 64; };
  const int num_layers = instance.num_layers;
  const size_t num_shapes = instance.shapes.size();
  instance.table.resize(static_cast<size_t>(num_layers) * num_layers * num_shapes);
  for (int begin = 0; begin < num_layers; ++begin) {
    for (int end = begin; end < num_layers; ++end) {
      const size_t row = (static_cast<size_t>(begin) * num_layers + end) * num_shapes;
      for (size_t shape = 0; shape < num_shapes; ++shape) {
        StageProfile& p = instance.table[row + shape];
        if (is_copy[shape] && rng.NextBounded(2) == 0) {
          p = instance.table[row + shape - 1];  // An exact tie with the original.
          continue;
        }
        if (rng.NextDouble() < 0.1) {
          continue;  // Stays +inf: the variant cannot run this interval.
        }
        const int layers = end - begin + 1;
        const int devices = instance.shapes[shape].num_devices();
        p.t_intra = std::round(4.0 * layers * rng.NextDouble(0.5, 2.0) / devices) / 4.0;
        p.t_per_iteration = rng.NextBounded(2) == 0 ? 0.0 : 0.25 * rng.NextBounded(4);
        p.weight_bytes = bytes(layers * rng.NextDouble(0.0, 0.4) / devices);
        p.act_bytes_per_microbatch = bytes(layers * rng.NextDouble(0.0, 0.25) / devices);
        p.work_bytes = bytes(rng.NextDouble(0.0, 0.05));
      }
    }
  }
  return instance;
}

void ExpectSameResult(const StageDpResult& pruned, const StageDpResult& reference) {
  EXPECT_EQ(pruned.feasible, reference.feasible);
  EXPECT_EQ(pruned.total_latency, reference.total_latency);
  EXPECT_EQ(pruned.stage_latency_sum, reference.stage_latency_sum);
  EXPECT_EQ(pruned.max_stage_latency, reference.max_stage_latency);
  EXPECT_EQ(pruned.num_tmax_tried, reference.num_tmax_tried);
  EXPECT_LE(pruned.dp_transitions, reference.dp_transitions);
  ASSERT_EQ(pruned.stages.size(), reference.stages.size());
  for (size_t i = 0; i < pruned.stages.size(); ++i) {
    EXPECT_EQ(pruned.stages[i].layer_begin, reference.stages[i].layer_begin) << i;
    EXPECT_EQ(pruned.stages[i].layer_end, reference.stages[i].layer_end) << i;
    EXPECT_EQ(pruned.stages[i].shape_index, reference.stages[i].shape_index) << i;
    EXPECT_EQ(pruned.stages[i].t_intra, reference.stages[i].t_intra) << i;
  }
}

TEST(StageDpOracle, PrunedDpMatchesUnprunedReference) {
  int feasible = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    const RandomInstance instance = MakeRandomInstance(seed);
    SCOPED_TRACE(testing::Message()
                 << "seed=" << seed << " L=" << instance.num_layers
                 << " B=" << instance.num_microbatches
                 << " devices=" << instance.cluster.num_devices()
                 << " variants=" << instance.shapes.size()
                 << " max_stages=" << instance.options.max_stages
                 << " tmax_cap=" << instance.options.max_tmax_candidates);
    const StageDpResult pruned =
        SolveStageDp(instance.num_layers, instance.num_microbatches, instance.cluster,
                     instance.shapes, instance.Profile(), instance.options);
    const StageDpResult reference =
        ReferenceStageDp(instance.num_layers, instance.num_microbatches, instance.cluster,
                         instance.shapes, instance.Profile(), instance.options);
    ExpectSameResult(pruned, reference);
    feasible += reference.feasible ? 1 : 0;
  }
  // The seeds cover both outcomes.
  EXPECT_GT(feasible, 24);
  EXPECT_LT(feasible, 240);
}

TEST(StageDpOracle, FigEightSizedInstanceWalksTenfoldFewerTransitions) {
  // 16 layers on 5 hosts x 8 devices with 32 variants (each of the 8
  // physical shapes four times), priced like the profiler's output: near
  // linear intra-op scaling with a per-device communication tax, and
  // weights that must be sharded to fit.
  const ClusterSpec cluster = ClusterSpec::AwsP3(5, 8);
  std::vector<SubmeshShape> shapes;
  for (const SubmeshShape& shape : EnumerateSubmeshShapes(cluster)) {
    for (int copy = 0; copy < 4; ++copy) {
      shapes.push_back(shape);
    }
  }
  ASSERT_EQ(shapes.size(), 32u);
  const double memory = cluster.device.memory_bytes;
  const StageProfileFn profile = [&](int begin, int end, int shape_index) {
    const int layers = end - begin + 1;
    const int devices = shapes[static_cast<size_t>(shape_index)].num_devices();
    const int copy = shape_index % 4;
    StageProfile p;
    p.t_intra = layers * (1.0 + 0.05 * copy) / std::pow(devices, 0.9);
    p.t_per_iteration = 0.1 * layers * (devices > 1 ? 1.0 : 0.0);
    p.weight_bytes = memory * 0.3 * layers / (devices * (1 + copy));
    p.act_bytes_per_microbatch = memory * 0.02 * layers / devices;
    return p;
  };
  StageDpOptions options;
  const StageDpResult pruned = SolveStageDp(16, 64, cluster, shapes, profile, options);
  const StageDpResult reference = ReferenceStageDp(16, 64, cluster, shapes, profile, options);
  ExpectSameResult(pruned, reference);
  ASSERT_TRUE(pruned.feasible);
  EXPECT_GE(reference.dp_transitions, 10 * pruned.dp_transitions)
      << "pruned " << pruned.dp_transitions << " vs reference " << reference.dp_transitions;
}

class StageDpTest : public ::testing::Test {
 protected:
  StageDpTest() : cluster_(ClusterSpec::AwsP3(1, 4)) {
    shapes_ = EnumerateSubmeshShapes(cluster_);  // (1,1),(1,2),(1,4).
  }
  ClusterSpec cluster_;
  std::vector<SubmeshShape> shapes_;

  // Weights REPLICATED across the stage's devices (data-parallel-like);
  // latency scales linearly with device count.
  StageProfileFn MakeProfile(double per_layer_seconds, double weight_per_layer = 0.0,
                             double act_per_layer = 0.0, double per_iter = 0.0) {
    return [=, this](int begin, int end, int shape_index) {
      const int layers = end - begin + 1;
      const int devices = shapes_[static_cast<size_t>(shape_index)].num_devices();
      StageProfile p;
      p.t_intra = per_layer_seconds * layers / devices;
      p.t_per_iteration = per_iter * layers / devices;
      p.weight_bytes = weight_per_layer * layers;  // Replicated.
      p.act_bytes_per_microbatch = act_per_layer * layers / devices;
      return p;
    };
  }
};

TEST_F(StageDpTest, SingleStageWhenPerfectlyParallel) {
  // With perfectly linear intra-op scaling and no memory pressure, one
  // stage on the whole mesh always wins (no pipeline bubbles).
  const auto result = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0));
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(shapes_[static_cast<size_t>(result.stages[0].shape_index)].num_devices(), 4);
  EXPECT_NEAR(result.total_latency, 8.0, 1e-9);  // 8 microbatches x 1s.
}

TEST_F(StageDpTest, MemoryForcesPipelining) {
  // Weights are replicated within a stage: 4 layers x 5 GB = 20 GB exceeds
  // one device, so the model must be pipelined into smaller stages.
  const double w = 5e9;
  const auto result = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, w));
  ASSERT_TRUE(result.feasible);
  // Must split into several stages so that weights shard.
  EXPECT_GE(result.stages.size(), 2u);
  // All devices used.
  int total = 0;
  for (const auto& stage : result.stages) {
    total += shapes_[static_cast<size_t>(stage.shape_index)].num_devices();
  }
  EXPECT_EQ(total, 4);
}

TEST_F(StageDpTest, InfeasibleWhenNothingFits) {
  const auto result = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 20e9));
  EXPECT_FALSE(result.feasible);
}

TEST_F(StageDpTest, LayersAreContiguousAndComplete) {
  const auto result = SolveStageDp(6, 4, cluster_, shapes_, MakeProfile(1.0, 4e9));
  ASSERT_TRUE(result.feasible);
  int next = 0;
  for (const auto& stage : result.stages) {
    EXPECT_EQ(stage.layer_begin, next);
    EXPECT_GE(stage.layer_end, stage.layer_begin);
    next = stage.layer_end + 1;
  }
  EXPECT_EQ(next, 6);
}

TEST_F(StageDpTest, Eq2ObjectiveMatchesReconstruction) {
  const auto result = SolveStageDp(4, 16, cluster_, shapes_, MakeProfile(1.0, 4e9));
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(result.total_latency,
              result.stage_latency_sum + 15 * result.max_stage_latency, 1e-6);
}

TEST_F(StageDpTest, PerIterationCostSteersChoice) {
  // A per-iteration cost that explodes on multi-device stages should push
  // the DP towards fewer devices per stage... here: uniform, so it simply
  // increases the reported latency.
  const auto cheap = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9, 0.0, 0.0));
  const auto costly = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9, 0.0, 8.0));
  ASSERT_TRUE(cheap.feasible);
  ASSERT_TRUE(costly.feasible);
  EXPECT_GT(costly.total_latency, cheap.total_latency);
}

TEST_F(StageDpTest, MoreMicrobatchesAmortizePipeline) {
  // Doubling B should not double latency when pipelining is effective,
  // and per-microbatch latency must improve or stay equal.
  const auto b8 = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9));
  const auto b32 = SolveStageDp(4, 32, cluster_, shapes_, MakeProfile(1.0, 4e9));
  ASSERT_TRUE(b8.feasible);
  ASSERT_TRUE(b32.feasible);
  EXPECT_LE(b32.total_latency / 32.0, b8.total_latency / 8.0 + 1e-9);
}

// Brute force over every slicing of `num_layers` layers into stages and
// every shape per stage that uses exactly all devices: true when one of
// them keeps each stage's t_intra finite and its 1F1B peak, min(S - i, B)
// in-flight activations for stage i of S, within the device memory.
bool AnySlicingFits(int num_layers, int num_microbatches, double memory,
                    const std::vector<SubmeshShape>& shapes, int total_devices,
                    const StageProfileFn& profile) {
  struct Stage {
    int begin, end, shape;
  };
  std::vector<Stage> stages;
  std::function<bool(int, int)> search = [&](int begin, int devices_left) {
    if (begin == num_layers) {
      if (devices_left != 0) {
        return false;
      }
      const int num_stages = static_cast<int>(stages.size());
      for (int i = 0; i < num_stages; ++i) {
        const StageProfile p = profile(stages[i].begin, stages[i].end, stages[i].shape);
        const int in_flight = std::min(num_stages - i, num_microbatches);
        if (!std::isfinite(p.t_intra) ||
            p.weight_bytes + in_flight * p.act_bytes_per_microbatch + p.work_bytes > memory) {
          return false;
        }
      }
      return true;
    }
    for (int end = begin; end < num_layers; ++end) {
      for (int shape = 0; shape < static_cast<int>(shapes.size()); ++shape) {
        const int used = shapes[static_cast<size_t>(shape)].num_devices();
        if (used > devices_left) {
          continue;
        }
        stages.push_back(Stage{begin, end, shape});
        const bool found = search(end + 1, devices_left - used);
        stages.pop_back();
        if (found) {
          return true;
        }
      }
    }
    return false;
  };
  return search(0, total_devices);
}

TEST_F(StageDpTest, InFlightMicrobatchesCountedPerStagePosition) {
  // Activation-heavy layers: the stage i of S holds min(S - i, B) in-flight
  // microbatch activations. Sweep the activation size from loose to
  // impossible, with and without replicated weights that force one-layer
  // stages; the DP must be feasible exactly when some slicing fits, and
  // every stage of its plan must fit at its pipeline position.
  const double memory = cluster_.device.memory_bytes;
  int feasible_count = 0;
  int infeasible_count = 0;
  for (const double weight : {0.0, 0.6 * memory}) {
    for (const double act : {4e7, 4e9, 1e10, 2e10, 4e10, 7e10}) {
      for (const int microbatches : {1, 2, 8}) {
        SCOPED_TRACE(testing::Message()
                     << "weight=" << weight << " act=" << act << " B=" << microbatches);
        const StageProfileFn profile = MakeProfile(1.0, weight, act);
        const auto result = SolveStageDp(4, microbatches, cluster_, shapes_, profile);
        const bool fits =
            AnySlicingFits(4, microbatches, memory, shapes_, cluster_.num_devices(), profile);
        ASSERT_EQ(result.feasible, fits);
        if (!result.feasible) {
          ++infeasible_count;
          continue;
        }
        ++feasible_count;
        const int num_stages = static_cast<int>(result.stages.size());
        for (int i = 0; i < num_stages; ++i) {
          const StageAssignment& stage = result.stages[static_cast<size_t>(i)];
          const StageProfile p = profile(stage.layer_begin, stage.layer_end, stage.shape_index);
          EXPECT_LE(p.weight_bytes +
                        std::min(num_stages - i, microbatches) * p.act_bytes_per_microbatch,
                    memory)
              << "stage " << i;
        }
      }
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(feasible_count, 0);
  EXPECT_GT(infeasible_count, 0);
}

TEST_F(StageDpTest, TmaxSubsampling) {
  StageDpOptions options;
  options.max_tmax_candidates = 4;
  const auto sampled = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9), options);
  StageDpOptions full;
  full.max_tmax_candidates = 0;
  const auto exact = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9), full);
  ASSERT_TRUE(sampled.feasible);
  ASSERT_TRUE(exact.feasible);
  // Subsampled solution within 25% of exact.
  EXPECT_LE(sampled.total_latency, exact.total_latency * 1.25 + 1e-9);
  EXPECT_GE(sampled.total_latency, exact.total_latency - 1e-9);
}

TEST_F(StageDpTest, TmaxCapOfOneKeepsLargestCandidate) {
  // Regression: a cap of 1 used to divide by zero in the sampling stride.
  // The single kept threshold must be the largest candidate, so a solvable
  // problem stays solvable (just possibly with a looser t_max).
  StageDpOptions capped;
  capped.max_tmax_candidates = 1;
  const auto result = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9), capped);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.num_tmax_tried, 1);

  StageDpOptions full;
  full.max_tmax_candidates = 0;
  const auto exact = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9), full);
  ASSERT_TRUE(exact.feasible);
  EXPECT_GE(result.total_latency, exact.total_latency - 1e-9);
}

TEST_F(StageDpTest, TmaxCapOfTwoSamplesBothEndpoints) {
  StageDpOptions capped;
  capped.max_tmax_candidates = 2;
  const auto result = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9), capped);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.num_tmax_tried, 2);

  StageDpOptions full;
  full.max_tmax_candidates = 0;
  const auto exact = SolveStageDp(4, 8, cluster_, shapes_, MakeProfile(1.0, 4e9), full);
  ASSERT_TRUE(exact.feasible);
  EXPECT_GE(result.total_latency, exact.total_latency - 1e-9);
}

}  // namespace
}  // namespace alpa
