// perfbench: the repository's one benchmark command.
//
//   perfbench --workload <compile_cold|replan_warm|serve_mixed|exec_train>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Runs one workload through the public API, checks its outputs, and prints
// a human-readable report followed by ONE JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set (kEndToEnd below), with
// --trace 1 the per-layer set (kPerLayer). Both lists mirror
// BENCHMARK.json. The exit code is 0 only when every check passed.
//
// --smoke shrinks every workload to a fixed, tiny amount of work and also
// prints a {"deterministic": {...}} line with the fields that must repeat
// exactly across runs and seeds (smoke_test.py compares them).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

using NameUnit = std::pair<const char*, const char*>;

// Every workload reports every end-to-end metric; what "one unit of work"
// is differs per workload (README.md lists the mapping).
const std::vector<NameUnit> kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},           {"p50_ms", "ms"},
    {"tail_ms", "ms"},         {"throughput_per_s", "1/s"},     {"plan_pflops", "PFLOPS"},
};

const std::vector<NameUnit> kPerLayer = {
    {"models.build_ms", "ms"},
    {"solver.wall_s", "s"},
    {"solver.busy_s", "s"},
    {"solver.presolve_s", "s"},
    {"solver.elim_s", "s"},
    {"solver.bnb_s", "s"},
    {"solver.build_s", "s"},
    {"solver.clustering_s", "s"},
    {"solver.nodes_explored", "count"},
    {"solver.elim_cells", "count"},
    {"solver.solves", "count"},
    {"solver.optimal", "count"},
    {"solver.aborted", "count"},
    {"solver.gap_max", "ratio"},
    {"intra.memo_hits", "count"},
    {"intra.memo_misses", "count"},
    {"intra.memo_hit_ratio", "ratio"},
    {"inter.dp_s", "s"},
    {"inter.dp_transitions", "count"},
    {"inter.tmax_candidates", "count"},
    {"core.other_s", "s"},
    {"runtime.simulate_ms", "ms"},
    {"runtime.bubble_fraction", "ratio"},
    {"exec.forward_ms", "ms"},
    {"exec.backward_ms", "ms"},
    {"exec.update_ms", "ms"},
    {"exec.boundary_ms", "ms"},
    {"exec.collective_ms", "ms"},
    {"exec.bytes", "bytes"},
    {"exec.collective_bytes", "bytes"},
    {"exec.cross_mesh_bytes", "bytes"},
    {"exec.messages", "count"},
    {"exec.measured_peak_bytes", "bytes"},
    {"exec.planned_bytes", "bytes"},
    {"exec.reference_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.inproc_hit_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.request_bytes", "bytes"},
    {"serve.response_bytes", "bytes"},
    {"serve.hit_ratio", "ratio"},
    {"serve.compiles", "count"},
    {"serve.disk_hits", "count"},
    {"serve.rejected", "count"},
    {"elastic.events_applied", "count"},
    {"elastic.events_skipped", "count"},
    {"self.models_s", "s"},
    {"self.solver_s", "s"},
    {"self.intra_s", "s"},
    {"self.inter_s", "s"},
    {"self.core_s", "s"},
    {"self.runtime_s", "s"},
    {"self.exec_s", "s"},
    {"self.serve_s", "s"},
    {"self.elastic_s", "s"},
    {"unattributed_s", "s"},
    {"unattributed_share", "ratio"},
    {"traced_wall_s", "s"},
    {"trace.overhead_share", "ratio"},
    {"quality.GPT-1.3B", "ratio"},
    {"quality.GPT-2.6B", "ratio"},
    {"quality.GPT-6.7B", "ratio"},
    {"quality.MoE-2.4B", "ratio"},
    {"quality.MoE-10B", "ratio"},
    {"quality.MoE-27B", "ratio"},
    {"quality.WResNet-2B", "ratio"},
    {"quality.WResNet-4B", "ratio"},
    {"quality.WResNet-6.8B", "ratio"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--smoke]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload;
}

// The JSON number for a metric value: every digit, never NaN/Inf.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  return Fmt("%.17g", value);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    body += Fmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", body.empty() ? "" : ", ",
                m.name.c_str(), JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  return "{" + body + "}";
}

// Orders the workload's metrics by the metric list; a metric the workload
// did not touch reads 0. A name outside the list is a benchmark bug.
bool Conform(const std::vector<NameUnit>& listed, Result* result) {
  std::map<std::string, Metric> got;
  for (const Metric& m : result->metrics) {
    got[m.name] = m;
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : listed) {
    const auto it = got.find(name);
    Metric m{name, it == got.end() ? 0.0 : it->second.value, unit};
    if (it != got.end() && it->second.unit != unit) {
      std::fprintf(stderr, "metric %s reported in %s, the list says %s\n", name,
                   it->second.unit.c_str(), unit);
      return false;
    }
    if (it != got.end()) got.erase(it);
    ordered.push_back(m);
  }
  for (const auto& [name, m] : got) {
    std::fprintf(stderr, "metric %s is not in the metric list\n", name.c_str());
    return false;
  }
  result->metrics = std::move(ordered);
  return true;
}

// Keeps every CPU busy until it runs at full speed, before anything is
// timed. On the 4-vCPU virtual machines this benchmark was tuned on, CPUs
// that sat idle for a few seconds run about 4x slower for the first 1-1.2 s
// of load, so whatever ran first (the set-up) read up to 4x too slow. Spins
// for at least 2 s, then until three 100 ms slices in a row are no faster
// than the best slice so far; at most 5 s.
void WarmUpCpus() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> work{0};
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([&] {
      volatile double x = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 10000; ++i) x = x + i * 0.5;
        work.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  int64_t best = 0;
  int steady = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] { return std::chrono::steady_clock::now() - start; };
  while ((steady < 3 || elapsed() < std::chrono::seconds(2)) &&
         elapsed() < std::chrono::seconds(5)) {
    const int64_t before = work.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int64_t slice = work.load() - before;
    steady = slice > best * 1.02 ? 0 : steady + 1;
    best = std::max(best, slice);
  }
  stop = true;
  for (std::thread& t : spinners) t.join();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  Result (*run)(const Args&) = nullptr;
  if (args.workload == "compile_cold") {
    run = RunCompileCold;
  } else if (args.workload == "replan_warm") {
    run = RunReplanWarm;
  } else if (args.workload == "serve_mixed") {
    run = RunServeMixed;
  } else if (args.workload == "exec_train") {
    run = RunExecTrain;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    Usage();
    return 2;
  }
  args.work_dir = Fmt(".bench_build/work/%s-%d", args.workload.c_str(), ::getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create work dir %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  WarmUpCpus();
  Result result = run(args);
  std::filesystem::remove_all(args.work_dir, ec);

  const bool conforms = Conform(args.trace ? kPerLayer : kEndToEnd, &result);
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  if (args.smoke) {
    std::printf("{\"deterministic\": %s}\n", MetricsJson(result.deterministic).c_str());
  }
  const bool correct = result.correct && result.failed == 0 && result.attempted > 0 && conforms;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
