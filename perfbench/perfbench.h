// Shared plumbing of the perfbench binary: run arguments, the result every
// workload returns, timing/statistics helpers, and the layer accounting of
// traced runs.
//
// The benchmark only calls the library's public API (src/core/api.h,
// src/serve, src/elastic, src/exec, src/baselines). Every span it records
// wraps one of those calls from the outside; nothing inside the library is
// instrumented for it.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/api.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and a short window: the smoke mode checks verdicts and
  // deterministic counts, not speed.
  bool smoke = false;
  // Scratch directory inside the checkout (socket, disk cache), removed at
  // exit.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Listed metrics, printed in the final JSON line: the end-to-end set on
  // an untraced run, the per-layer set on a traced run.
  std::vector<Metric> metrics;
  // Deterministic fields the smoke test compares across seeds.
  std::vector<Metric> deterministic;
  // Human-readable report lines, printed before the JSON line.
  std::vector<std::string> report;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddDeterministic(const std::string& name, double value, const std::string& unit) {
    deterministic.push_back({name, value, unit});
  }
  void Line(const std::string& line) { report.push_back(line); }
  // Counts one attempted operation; `ok == false` is a failed check.
  void Check(bool ok, const std::string& what);
};

double Now();
double Median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);
double PeakRssMb();
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// SplitMix64: the benchmark's own input generator, so inputs depend only on
// the seed and not on library internals.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

// The nine fig8 weak-scaling rows: GPT 1.3B/2.6B/6.7B, MoE 2.4B/10B/27B and
// Wide-ResNet 2B/4B/6.8B, with the microbatch sizes, microbatch counts and
// stage-layer targets of bench/fig8_*.cc.
struct Fig8Row {
  std::string name;
  int num_gpus = 0;
  int num_microbatches = 0;
  int target_layers = 0;
  alpa::Graph graph;  // Built with the row's microbatch size.

  // bench/bench_util.h's ClusterFor: 8-GPU hosts, or one smaller host.
  alpa::ClusterSpec Cluster() const;
};
std::vector<Fig8Row> BuildFig8Rows();
// The per-ILP node budget every fig8 compile uses (bench/bench_util.h).
inline constexpr int64_t kSearchBudget = 60'000;
alpa::ParallelizeOptions Fig8Options(const Fig8Row& row, int threads);

// --- Layer accounting of a traced run. ---
//
// A traced run records one alpa::TraceSpan (category "perfbench") around
// every public call the workload makes, named "<layer>:<call>". A layer's
// self time is the summed duration of its spans minus the part their
// child spans cover. Parallelize spans are split further from the
// CompileStats the call returns (Split()). The traced window is the
// summed wall time of the load threads; what no span covers is reported
// as unattributed.
enum Layer { kModels, kSolver, kIntra, kInter, kCore, kRuntime, kExec, kServe, kElastic,
             kNumLayers };
const char* LayerName(Layer layer);

class LayerAccount {
 public:
  // Clears the process trace and enables recording.
  void Begin();
  // Stops recording and folds the recorded spans into self times.
  // `window_seconds` is the traced wall time summed over load threads.
  void End(double window_seconds);

  // Split() and Move() may be called from several load threads.
  // Re-attributes part of a core:parallelize span from the stats it
  // returned: clustering and the ILP core to solver, the rest of the
  // profiling sweep to intra, the stage DP to inter; the part of the
  // inter-op pass between those phases goes to the unattributed share.
  // `solver_busy_seconds` is the ILP-core time the Metrics counters moved
  // by during the call (summed over compile threads); 0 sends the whole
  // profiling sweep to intra.
  // `from` is the layer whose span contained the compile (core for a
  // direct Parallelize call, serve for a server-side compile).
  void Split(const alpa::CompileStats& stats, double solver_busy_seconds, Layer from = kCore);
  // Moves `seconds` of a serve span to another layer (server-side compile
  // or simulate time reported in the response).
  void Move(Layer from, Layer to, double seconds);

  // Appends self.<layer>_s, unattributed_s/_share and traced_wall_s.
  void Report(Result* result) const;
  // Writes the Chrome trace of the run (the repo's own exporter).
  void WriteTrace(const std::string& path) const;

  double self_seconds(Layer layer) const { return self_[layer]; }

 private:
  std::mutex mu_;  // Guards self_ and inner_unattributed_ during the window.
  double self_[kNumLayers] = {};
  double inner_unattributed_ = 0.0;
  double window_ = 0.0;
  std::string chrome_json_;
};

// Where a traced run writes its Chrome trace (under .bench_build/traces).
std::string TracePath(const Args& args);

// Sum of the ILP-core stage timers (presolve, elimination tables and
// ordering, branch & bound / portfolio, problem build), in seconds.
double SolverBusySeconds();

// The workloads. Each returns its result; setup failures are reported as
// failed checks, never as crashes.
Result RunCompileCold(const Args& args);
Result RunReplanWarm(const Args& args);
Result RunServeMixed(const Args& args);
Result RunExecTrain(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
