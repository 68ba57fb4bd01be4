#include <gtest/gtest.h>

#include <cmath>

#include "src/mesh/cluster_spec.h"
#include "src/mesh/submesh.h"
#include "src/runtime/pipeline_schedule.h"
#include "src/runtime/simulator.h"
#include "src/solver/stage_dp.h"

namespace alpa {
namespace {

using Kind = PipelineInstruction::Kind;

TEST(PipelineSchedule, GpipeOrder) {
  const auto schedule = BuildPipelineSchedule(PipelineScheduleType::kGpipe, 2, 3);
  ASSERT_EQ(schedule.size(), 2u);
  // F0 F1 F2 B0 B1 B2 U.
  ASSERT_EQ(schedule[0].size(), 7u);
  EXPECT_EQ(schedule[0][0].kind, Kind::kForward);
  EXPECT_EQ(schedule[0][2].microbatch, 2);
  EXPECT_EQ(schedule[0][3].kind, Kind::kBackward);
  EXPECT_EQ(schedule[0][6].kind, Kind::kUpdate);
}

TEST(PipelineSchedule, OneFOneBOrder) {
  const auto schedule = BuildPipelineSchedule(PipelineScheduleType::k1F1B, 4, 8);
  // Stage 0: 3 warmup forwards, then alternation.
  const auto& program = schedule[0];
  EXPECT_EQ(program[0].kind, Kind::kForward);
  EXPECT_EQ(program[1].kind, Kind::kForward);
  EXPECT_EQ(program[2].kind, Kind::kForward);
  EXPECT_EQ(program[3].kind, Kind::kForward);
  EXPECT_EQ(program[4].kind, Kind::kBackward);
  EXPECT_EQ(program[4].microbatch, 0);
  // Last stage: no warmup, strict alternation.
  EXPECT_EQ(schedule[3][0].kind, Kind::kForward);
  EXPECT_EQ(schedule[3][1].kind, Kind::kBackward);
}

TEST(PipelineSchedule, EveryMicrobatchAppearsOnce) {
  for (auto type : {PipelineScheduleType::kGpipe, PipelineScheduleType::k1F1B}) {
    const auto schedule = BuildPipelineSchedule(type, 3, 5);
    for (const auto& program : schedule) {
      int forwards = 0;
      int backwards = 0;
      int updates = 0;
      for (const auto& inst : program) {
        forwards += inst.kind == Kind::kForward ? 1 : 0;
        backwards += inst.kind == Kind::kBackward ? 1 : 0;
        updates += inst.kind == Kind::kUpdate ? 1 : 0;
      }
      EXPECT_EQ(forwards, 5);
      EXPECT_EQ(backwards, 5);
      EXPECT_EQ(updates, 1);
    }
  }
}

TEST(PipelineSchedule, InFlightBound) {
  EXPECT_EQ(MaxInFlightMicrobatches(PipelineScheduleType::k1F1B, 4, 0, 16), 4);
  EXPECT_EQ(MaxInFlightMicrobatches(PipelineScheduleType::k1F1B, 4, 3, 16), 1);
  EXPECT_EQ(MaxInFlightMicrobatches(PipelineScheduleType::kGpipe, 4, 0, 16), 16);
}

PipelineSimInput MakeInput(int stages, int microbatches, double tf = 0.1, double tb = 0.2) {
  PipelineSimInput input;
  input.num_microbatches = microbatches;
  for (int s = 0; s < stages; ++s) {
    StageExecProfile p;
    p.t_forward = tf;
    p.t_backward = tb;
    input.stages.push_back(p);
  }
  return input;
}

TEST(Simulator, SingleStageLatency) {
  auto input = MakeInput(1, 4);
  const auto result = SimulatePipeline(input);
  EXPECT_NEAR(result.latency, 4 * 0.3, 1e-9);
  EXPECT_NEAR(result.bubble_fraction, 0.0, 1e-9);
}

TEST(Simulator, PipelineLatencyMatchesEq2) {
  // Uniform stages, no transfer: Eq. 2 predicts sum + (B-1)*max.
  const int stages = 4;
  const int microbatches = 8;
  auto input = MakeInput(stages, microbatches);
  const auto result = SimulatePipeline(input);
  const double per_stage = 0.3;
  const double expected = stages * per_stage + (microbatches - 1) * per_stage;
  EXPECT_NEAR(result.latency, expected, 1e-9);
}

TEST(Simulator, GpipeSameLatencyAs1F1B) {
  // The paper (2.2): same theoretical latency, lower peak memory for 1F1B.
  auto input = MakeInput(4, 8);
  input.stages[0].act_bytes_per_microbatch = 1e9;
  input.schedule = PipelineScheduleType::k1F1B;
  const auto r1f1b = SimulatePipeline(input);
  input.schedule = PipelineScheduleType::kGpipe;
  const auto rgpipe = SimulatePipeline(input);
  EXPECT_NEAR(r1f1b.latency, rgpipe.latency, 1e-9);
  EXPECT_LT(r1f1b.stage_peak_bytes[0], rgpipe.stage_peak_bytes[0]);
}

TEST(Simulator, OneFOneBPeakMemoryBound) {
  const int stages = 4;
  const int microbatches = 16;
  auto input = MakeInput(stages, microbatches);
  for (auto& stage : input.stages) {
    stage.act_bytes_per_microbatch = 1.0;
  }
  const auto result = SimulatePipeline(input);
  for (int s = 0; s < stages; ++s) {
    EXPECT_LE(result.stage_peak_bytes[static_cast<size_t>(s)],
              MaxInFlightMicrobatches(PipelineScheduleType::k1F1B, stages, s, microbatches) +
                  1e-9)
        << s;
  }
}

TEST(Simulator, TransferDelaysPipeline) {
  auto fast = MakeInput(2, 4);
  const auto no_transfer = SimulatePipeline(fast);
  auto slow = MakeInput(2, 4);
  slow.stages[0].t_send_next = 0.5;
  const auto with_transfer = SimulatePipeline(slow);
  EXPECT_GT(with_transfer.latency, no_transfer.latency);
}

TEST(Simulator, OomDetection) {
  auto input = MakeInput(2, 4);
  input.device_memory_bytes = 1e9;
  input.stages[1].weight_bytes = 2e9;
  const auto result = SimulatePipeline(input);
  EXPECT_TRUE(result.oom);
  EXPECT_EQ(result.first_oom_stage, 1);
}

TEST(Simulator, UpdateRunsOncePerStage) {
  auto input = MakeInput(2, 4);
  input.stages[0].t_update = 1.0;
  input.stages[1].t_update = 2.0;
  const auto base = MakeInput(2, 4);
  const auto without = SimulatePipeline(base);
  const auto with = SimulatePipeline(input);
  // The last-finishing update extends the makespan by at most its duration.
  EXPECT_GE(with.latency, without.latency + 1.0);
  EXPECT_LE(with.latency, without.latency + 2.0 + 1e-9);
}

TEST(Simulator, BusyTimeAccounting) {
  auto input = MakeInput(3, 6);
  const auto result = SimulatePipeline(input);
  for (double busy : result.stage_busy_seconds) {
    EXPECT_NEAR(busy, 6 * 0.3, 1e-9);
  }
  EXPECT_GT(result.bubble_fraction, 0.0);
  EXPECT_LT(result.bubble_fraction, 0.5);
}

TEST(Simulator, ManyStagesManyMicrobatchesTerminates) {
  auto input = MakeInput(16, 64, 0.01, 0.02);
  const auto result = SimulatePipeline(input);
  EXPECT_GT(result.latency, 0.0);
  // Bubble fraction shrinks with B >> S.
  EXPECT_LT(result.bubble_fraction, 0.3);
}

TEST(SimulatorProperty, PeakInFlightEqualsScheduleBound) {
  // With unit-sized activations and no weights, a stage's peak bytes count
  // exactly its in-flight microbatches; that observed peak must EQUAL the
  // schedule's MaxInFlightMicrobatches bound (not merely stay below it),
  // for both schedules across stage/microbatch sweeps.
  for (auto type : {PipelineScheduleType::kGpipe, PipelineScheduleType::k1F1B}) {
    for (int stages : {1, 2, 3, 4, 6}) {
      for (int microbatches : {1, 2, 4, 8, 16}) {
        auto input = MakeInput(stages, microbatches);
        input.schedule = type;
        for (auto& stage : input.stages) {
          stage.act_bytes_per_microbatch = 1.0;
        }
        const auto result = SimulatePipeline(input);
        for (int s = 0; s < stages; ++s) {
          EXPECT_EQ(result.stage_peak_bytes[static_cast<size_t>(s)],
                    static_cast<double>(
                        MaxInFlightMicrobatches(type, stages, s, microbatches)))
              << "schedule=" << (type == PipelineScheduleType::kGpipe ? "gpipe" : "1f1b")
              << " S=" << stages << " M=" << microbatches << " stage=" << s;
        }
      }
    }
  }
}

TEST(SimulatorProperty, GpipeBubbleMatchesClosedForm) {
  // Uniform stages, no transfers, no update: GPipe's bubble fraction is
  // exactly (S-1)/(M+S-1).
  for (int stages : {1, 2, 4, 8}) {
    for (int microbatches : {1, 2, 4, 8, 32}) {
      auto input = MakeInput(stages, microbatches);
      input.schedule = PipelineScheduleType::kGpipe;
      const auto result = SimulatePipeline(input);
      const double expected =
          (stages - 1.0) / (microbatches + stages - 1.0);
      EXPECT_NEAR(result.bubble_fraction, expected, 1e-12)
          << "S=" << stages << " M=" << microbatches;
    }
  }
}

TEST(SimulatorProperty, StageDpChargesAtMostBInFlightMicrobatches) {
  // Four one-layer stages on four single devices with B = 2 < S = 4. Two
  // layers never share a device (replicated weights would overflow it), and
  // the first stage fits only if it is charged min(S, B) = 2 in-flight
  // activations rather than S = 4; 1F1B never holds more.
  const ClusterSpec cluster = ClusterSpec::AwsP3(1, 4);
  const std::vector<SubmeshShape> shapes = EnumerateSubmeshShapes(cluster);
  const double memory = cluster.device.memory_bytes;
  const StageProfileFn profile = [&](int begin, int end, int shape_index) {
    const int layers = end - begin + 1;
    const int devices = shapes[static_cast<size_t>(shape_index)].num_devices();
    StageProfile p;
    p.t_intra = 1.0 * layers / devices;
    p.weight_bytes = 0.6 * memory * layers;
    p.act_bytes_per_microbatch = 0.15 * memory * layers / devices;
    return p;
  };
  // With B = S the bound is the stage position itself, and no plan fits.
  EXPECT_FALSE(SolveStageDp(4, 4, cluster, shapes, profile).feasible);

  const int microbatches = 2;
  const StageDpResult plan = SolveStageDp(4, microbatches, cluster, shapes, profile);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.stages.size(), 4u);
  PipelineSimInput input;
  input.num_microbatches = microbatches;
  input.device_memory_bytes = memory;
  for (const StageAssignment& stage : plan.stages) {
    const StageProfile p = profile(stage.layer_begin, stage.layer_end, stage.shape_index);
    StageExecProfile exec;
    exec.t_forward = p.t_intra / 3.0;
    exec.t_backward = p.t_intra - exec.t_forward;
    exec.weight_bytes = p.weight_bytes;
    exec.act_bytes_per_microbatch = p.act_bytes_per_microbatch;
    exec.work_bytes = p.work_bytes;
    input.stages.push_back(exec);
  }
  const PipelineSimResult result = SimulatePipeline(input);
  EXPECT_FALSE(result.oom);
  for (size_t s = 0; s < result.stage_peak_bytes.size(); ++s) {
    EXPECT_LE(result.stage_peak_bytes[s], memory) << s;
  }
  // The first stage really holds B activations at its peak.
  EXPECT_DOUBLE_EQ(result.stage_peak_bytes[0], 0.6 * memory + 2 * 0.15 * memory);
}

}  // namespace
}  // namespace alpa
