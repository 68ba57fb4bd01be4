// The numeric-equivalence oracle (slow tier): real end-to-end execution of
// compiled plans on GPT, MoE and Wide-ResNet training graphs, checked
// against the single-device reference interpreter.
//
//   * kDeterministic: losses, accumulated gradients and updated parameters
//     must match BIT FOR BIT — any tensor routed to the wrong shard,
//     device, schedule slot or microbatch changes cells.
//   * kRing: eligible einsum contractions are split across mesh devices and
//     combined with a real ring all-reduce; partials stay double until
//     after the reduction, so the result still matches to 1e-5 relative.
//
// The measured transport traffic is also checked: executing the same plan
// twice moves exactly the same bytes, and ring mode moves strictly more
// collective traffic than deterministic mode on the same plan.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/api.h"
#include "src/exec/executor.h"
#include "src/exec/interpreter.h"
#include "src/models/gpt.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"

namespace alpa {
namespace {

using exec::ExecOptions;
using exec::ExecResult;
using exec::HostTensor;
using exec::ReductionMode;
using exec::ReferenceResult;

// Bit-for-bit comparison of an executed result against the reference.
void ExpectBitIdentical(const ExecResult& got, const ReferenceResult& want) {
  ASSERT_EQ(got.microbatch_loss.size(), want.microbatch_loss.size());
  for (size_t mb = 0; mb < want.microbatch_loss.size(); ++mb) {
    EXPECT_EQ(got.microbatch_loss[mb], want.microbatch_loss[mb]) << "loss of microbatch " << mb;
  }
  ASSERT_EQ(got.weight_grads.size(), want.weight_grads.size());
  ASSERT_EQ(got.updated_params.size(), want.updated_params.size());
  for (const auto& [name, grad] : want.weight_grads) {
    const auto it = got.weight_grads.find(name);
    ASSERT_NE(it, got.weight_grads.end()) << "missing gradient for " << name;
    EXPECT_EQ(it->second.vec(), grad.vec()) << "gradient of " << name;
  }
  for (const auto& [name, param] : want.updated_params) {
    const auto it = got.updated_params.find(name);
    ASSERT_NE(it, got.updated_params.end()) << "missing updated parameter " << name;
    EXPECT_EQ(it->second.vec(), param.vec()) << "updated " << name;
  }
}

// Mixed-tolerance comparison for the ring path: 1e-5 relative + 1e-6
// absolute per element.
void ExpectClose(const ExecResult& got, const ReferenceResult& want) {
  ASSERT_EQ(got.microbatch_loss.size(), want.microbatch_loss.size());
  for (size_t mb = 0; mb < want.microbatch_loss.size(); ++mb) {
    EXPECT_NEAR(got.microbatch_loss[mb], want.microbatch_loss[mb],
                1e-5 * std::fabs(want.microbatch_loss[mb]) + 1e-6);
  }
  for (const auto& [name, grad] : want.weight_grads) {
    const auto it = got.weight_grads.find(name);
    ASSERT_NE(it, got.weight_grads.end()) << name;
    ASSERT_EQ(it->second.elements(), grad.elements()) << name;
    for (int64_t i = 0; i < grad.elements(); ++i) {
      ASSERT_NEAR(it->second.data()[i], grad.data()[i],
                  1e-5 * std::fabs(grad.data()[i]) + 1e-6)
          << name << " element " << i;
    }
  }
}

struct RunResult {
  ParallelPlan plan;
  ExecResult det;
  ExecResult ring;
};

// Compiles `graph` into a 2-stage pipeline of 1x2 meshes on a 4-GPU host
// and executes it under both reduction modes.
RunResult CompileAndExecute(Graph& graph, int num_microbatches,
                            PipelineScheduleType schedule = PipelineScheduleType::k1F1B) {
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  ParallelizeOptions options;
  options.num_microbatches = num_microbatches;
  options.schedule = schedule;
  options.inter.submesh_shapes = {SubmeshShape{1, 2}};
  StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  RunResult result;
  result.plan = *std::move(plan);

  ExecOptions exec_options;
  exec_options.reduction = ReductionMode::kDeterministic;
  StatusOr<ExecResult> det = ExecutePlan(result.plan, graph, cluster, exec_options);
  EXPECT_TRUE(det.ok()) << det.status().ToString();
  result.det = *std::move(det);

  exec_options.reduction = ReductionMode::kRing;
  StatusOr<ExecResult> ring = ExecutePlan(result.plan, graph, cluster, exec_options);
  EXPECT_TRUE(ring.ok()) << ring.status().ToString();
  result.ring = *std::move(ring);
  return result;
}

TEST(ExecEquivalence, GptMatchesReference) {
  GptConfig config;
  config.hidden = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.microbatch = 2;
  config.seq_len = 8;
  config.vocab = 64;
  Graph graph = BuildGpt(config);
  const ReferenceResult ref = exec::RunReference(graph, 3, 0);
  const RunResult run = CompileAndExecute(graph, 3);
  ASSERT_GE(run.plan.pipeline.stages.size(), 2u);
  ExpectBitIdentical(run.det, ref);
  ExpectClose(run.ring, ref);
  // Pipelining + sharding actually moved data, and the ring mode moved
  // strictly more collective traffic (real all-reduce steps).
  EXPECT_GT(run.det.cross_mesh_bytes, 0);
  EXPECT_GT(run.det.collective_bytes, 0);
  EXPECT_GT(run.ring.collective_bytes, run.det.collective_bytes);
  EXPECT_EQ(run.det.num_devices, 4);
}

TEST(ExecEquivalence, GptUnderGpipeScheduleIsStillBitIdentical) {
  GptConfig config;
  config.hidden = 32;
  config.num_layers = 2;
  config.num_heads = 2;
  config.microbatch = 2;
  config.seq_len = 8;
  config.vocab = 64;
  Graph graph = BuildGpt(config);
  const ReferenceResult ref = exec::RunReference(graph, 4, 0);
  const RunResult run = CompileAndExecute(graph, 4, PipelineScheduleType::kGpipe);
  // Gradient accumulation order is fixed at the update, so the schedule's
  // backward interleaving cannot change a single bit.
  ExpectBitIdentical(run.det, ref);
}

TEST(ExecEquivalence, MoeMatchesReference) {
  MoeConfig config;
  config.hidden = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.num_experts = 2;
  config.ffn_mult = 2;
  config.microbatch = 2;
  config.seq_len = 8;
  config.vocab = 32;
  Graph graph = BuildMoe(config);
  const ReferenceResult ref = exec::RunReference(graph, 2, 0);
  const RunResult run = CompileAndExecute(graph, 2);
  ExpectBitIdentical(run.det, ref);
  ExpectClose(run.ring, ref);
}

TEST(ExecEquivalence, WideResNetMatchesReference) {
  WideResNetConfig config;
  config.microbatch = 1;
  config.base_channels = 8;
  config.width_factor = 1;
  config.num_classes = 16;
  Graph graph = BuildWideResNet(config);
  const ReferenceResult ref = exec::RunReference(graph, 2, 0);
  const RunResult run = CompileAndExecute(graph, 2);
  ExpectBitIdentical(run.det, ref);
  ExpectClose(run.ring, ref);
}

TEST(ExecEquivalence, ExecutionIsReproducibleIncludingByteCounters) {
  GptConfig config;
  config.hidden = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.microbatch = 2;
  config.seq_len = 4;
  config.vocab = 32;
  Graph graph = BuildGpt(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  ParallelizeOptions options;
  options.num_microbatches = 2;
  options.inter.submesh_shapes = {SubmeshShape{1, 2}};
  const StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StatusOr<ExecResult> a = ExecutePlan(*plan, graph, cluster, {});
  const StatusOr<ExecResult> b = ExecutePlan(*plan, graph, cluster, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->microbatch_loss, b->microbatch_loss);
  EXPECT_EQ(a->total_bytes, b->total_bytes);
  EXPECT_EQ(a->cross_mesh_bytes, b->cross_mesh_bytes);
  EXPECT_EQ(a->collective_bytes, b->collective_bytes);
  EXPECT_EQ(a->total_messages, b->total_messages);
  // A different data seed changes the numbers but not the traffic: the
  // byte counts are a pure function of the plan.
  ExecOptions seeded;
  seeded.data_seed = 7;
  const StatusOr<ExecResult> c = ExecutePlan(*plan, graph, cluster, seeded);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->microbatch_loss, c->microbatch_loss);
  EXPECT_EQ(a->total_bytes, c->total_bytes);
}

TEST(ExecEquivalence, AnnotateProgramsFillsBoundaryTensorIds) {
  GptConfig config;
  config.hidden = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.microbatch = 2;
  config.seq_len = 4;
  config.vocab = 32;
  Graph graph = BuildGpt(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  ParallelizeOptions options;
  options.num_microbatches = 2;
  options.inter.submesh_shapes = {SubmeshShape{1, 2}};
  const StatusOr<ParallelPlan> plan = Parallelize(graph, cluster, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_GE(plan->pipeline.stages.size(), 2u);

  std::vector<MeshProgram> programs =
      EmitPipelinePrograms(PipelineScheduleType::k1F1B,
                           static_cast<int>(plan->pipeline.stages.size()), 2);
  exec::AnnotatePrograms(graph, plan->pipeline, &programs);
  int annotated_sends = 0;
  for (const MeshProgram& program : programs) {
    for (const MeshInstruction& inst : program.instructions) {
      const bool transfer = inst.kind == InstructionKind::kSendActivation ||
                            inst.kind == InstructionKind::kRecvActivation ||
                            inst.kind == InstructionKind::kSendGradient ||
                            inst.kind == InstructionKind::kRecvGradient;
      if (!transfer) {
        EXPECT_TRUE(inst.tensor_ids.empty());
        continue;
      }
      EXPECT_FALSE(inst.tensor_ids.empty()) << inst.ToString();
      for (int id : inst.tensor_ids) {
        ASSERT_GE(id, 0);
        ASSERT_LT(id, graph.size());
      }
      ++annotated_sends;
    }
  }
  EXPECT_GT(annotated_sends, 0);
}

TEST(ExecEquivalence, RejectsDriftedSimInputAndSignalOnlyPlans) {
  GptConfig config;
  config.hidden = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.microbatch = 2;
  config.seq_len = 4;
  config.vocab = 32;
  Graph graph = BuildGpt(config);
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  ParallelizeOptions options;
  options.num_microbatches = 2;
  options.inter.submesh_shapes = {SubmeshShape{1, 2}};
  const StatusOr<ParallelPlan> compiled = Parallelize(graph, cluster, options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  {  // Microbatch-count drift between plan and sim input.
    ParallelPlan plan = *compiled;
    plan.sim_input.num_microbatches = 5;
    const StatusOr<ExecResult> result = ExecutePlan(plan, graph, cluster, {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Stage-device drift: the executor refuses placements that do not
     // come from the single BuildPipelineSimInput construction path.
    ParallelPlan plan = *compiled;
    ASSERT_FALSE(plan.sim_input.stage_devices.empty());
    ASSERT_FALSE(plan.sim_input.stage_devices[0].empty());
    plan.sim_input.stage_devices[0][0] += 1;
    const StatusOr<ExecResult> result = ExecutePlan(plan, graph, cluster, {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Stage layer ranges must ascend without overlap.
    ParallelPlan plan = *compiled;
    ASSERT_GE(plan.pipeline.stages.size(), 2u);
    plan.pipeline.stages[1].layer_begin = plan.pipeline.stages[0].layer_end;
    const StatusOr<ExecResult> result = ExecutePlan(plan, graph, cluster, {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {  // kSignalOnly cannot carry tensors.
    exec::ExecOptions exec_options;
    exec_options.reshard = ReshardStrategy::kSignalOnly;
    const StatusOr<ExecResult> result = ExecutePlan(*compiled, graph, cluster, exec_options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace alpa
