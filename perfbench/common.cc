#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "perfbench/perfbench.h"
#include "src/models/gpt.h"
#include "src/models/moe.h"
#include "src/models/wide_resnet.h"
#include "src/support/trace.h"

namespace perfbench {

using alpa::ClusterSpec;

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) {
    return;
  }
  ++failed;
  correct = false;
  // The first few failures say what broke; the count says how often.
  if (failed <= 10) {
    Line("CHECK FAILED: " + what);
  }
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buffer[512];
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

ClusterSpec Fig8Row::Cluster() const {
  return num_gpus <= 8 ? ClusterSpec::AwsP3(1, num_gpus) : ClusterSpec::AwsP3(num_gpus / 8, 8);
}

std::vector<Fig8Row> BuildFig8Rows() {
  std::vector<Fig8Row> rows;
  for (const alpa::GptBenchmarkCase& c : alpa::GptPaperCases()) {
    if (c.num_gpus < 4 || c.num_gpus > 16) continue;  // 1.3B/4, 2.6B/8, 6.7B/16.
    alpa::GptConfig config = c.config;
    config.microbatch = 8;
    rows.push_back({c.name, c.num_gpus, static_cast<int>(c.global_batch / config.microbatch),
                    c.num_gpus >= 8 ? 16 : 8, alpa::BuildGpt(config)});
  }
  for (const alpa::MoeBenchmarkCase& c : alpa::MoePaperCases()) {
    if (c.num_gpus < 8 || c.num_gpus > 32) continue;  // 2.4B/8, 10B/16, 27B/32.
    alpa::MoeConfig config = c.config;
    config.microbatch = 8;
    rows.push_back({c.name, c.num_gpus, static_cast<int>(c.global_batch / config.microbatch),
                    static_cast<int>(config.num_layers), alpa::BuildMoe(config)});
  }
  for (const alpa::WideResNetBenchmarkCase& c : alpa::WideResNetPaperCases()) {
    if (c.num_gpus < 8 || c.num_gpus > 32) continue;  // 2B/8, 4B/16, 6.8B/32.
    alpa::WideResNetConfig config = c.config;
    config.microbatch = 24;
    rows.push_back({c.name, c.num_gpus, static_cast<int>(c.global_batch / config.microbatch),
                    16, alpa::BuildWideResNet(config)});
  }
  return rows;
}

alpa::ParallelizeOptions Fig8Options(const Fig8Row& row, int threads) {
  return alpa::ParallelizeOptions::Builder()
      .search_budget(kSearchBudget)
      .threads(threads)
      .microbatches(row.num_microbatches)
      .target_layers(row.target_layers)
      .Build();
}

double SolverBusySeconds() {
  using alpa::Metrics;
  const int64_t micros = Metrics::Value("ilp/presolve/micros") + Metrics::Value("ilp/elim/micros") +
                         Metrics::Value("ilp/elim/plan_micros") + Metrics::Value("ilp/bnb/micros") +
                         Metrics::Value("ilp/build/micros") + Metrics::Value("ilp/legacy/micros");
  return static_cast<double>(micros) * 1e-6;
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {"models", "solver",  "intra", "inter",  "core",
                                                 "runtime", "exec", "serve", "elastic"};
  return kNames[layer];
}

namespace {

Layer LayerOfSpan(const std::string& name) {
  const std::string prefix = name.substr(0, name.find(':'));
  for (int l = 0; l < kNumLayers; ++l) {
    if (prefix == LayerName(static_cast<Layer>(l))) {
      return static_cast<Layer>(l);
    }
  }
  return kNumLayers;
}

}  // namespace

void LayerAccount::Begin() {
  alpa::Trace::Clear();
  alpa::Trace::Enable();
}

void LayerAccount::End(double window_seconds) {
  alpa::Trace::Disable();
  std::lock_guard<std::mutex> lock(mu_);
  window_ = window_seconds;
  std::vector<alpa::TraceEvent> events;
  for (alpa::TraceEvent& event : alpa::Trace::Snapshot()) {
    if (!event.virtual_time && event.category == "perfbench") {
      events.push_back(std::move(event));
    }
  }
  // Per lane, spans nest (they are RAII scopes on one thread): walk them in
  // start order with a stack of open ancestors and charge each span's
  // duration to its innermost open parent's child time.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.lane_id != b.lane_id) return a.lane_id < b.lane_id;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });
  std::vector<double> child(events.size(), 0.0);
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    while (!open.empty() && (events[open.back()].lane_id != events[i].lane_id ||
                             events[open.back()].end <= events[i].start)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child[open.back()] += events[i].end - events[i].start;
    }
    open.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const Layer layer = LayerOfSpan(events[i].name);
    if (layer != kNumLayers) {
      self_[layer] += events[i].end - events[i].start - child[i];
    }
  }
  chrome_json_ = alpa::Trace::ChromeTraceJson();
  alpa::Trace::Clear();
}

void LayerAccount::Split(const alpa::CompileStats& stats, double solver_busy_seconds,
                         Layer from) {
  const double share = stats.profiling_seconds > 0.0
                           ? std::min(1.0, solver_busy_seconds / stats.profiling_seconds)
                           : 0.0;
  const double solver = stats.clustering_seconds + stats.profiling_wall_seconds * share;
  const double intra = stats.profiling_wall_seconds * (1.0 - share);
  const double inter = stats.dp_seconds;
  const double between = std::max(0.0, stats.total_seconds - stats.clustering_seconds -
                                           stats.profiling_wall_seconds - stats.dp_seconds -
                                           stats.other_seconds);
  std::lock_guard<std::mutex> lock(mu_);
  self_[kSolver] += solver;
  self_[kIntra] += intra;
  self_[kInter] += inter;
  self_[from] -= solver + intra + inter + between;
  inner_unattributed_ += between;
}

void LayerAccount::Move(Layer from, Layer to, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  self_[from] -= seconds;
  self_[to] += seconds;
}

void LayerAccount::Report(Result* result) const {
  double attributed = 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    result->Add(Fmt("self.%s_s", LayerName(static_cast<Layer>(l))), self_[l], "s");
    attributed += self_[l];
  }
  const double unattributed = window_ - attributed;
  result->Add("unattributed_s", unattributed, "s");
  result->Add("unattributed_share", window_ > 0.0 ? unattributed / window_ : 0.0, "ratio");
  result->Add("traced_wall_s", window_, "s");
  std::string line = Fmt("layer self times over %.3f s traced:", window_);
  for (int l = 0; l < kNumLayers; ++l) {
    line += Fmt(" %s %.4f", LayerName(static_cast<Layer>(l)), self_[l]);
  }
  line += Fmt(" | unattributed %.4f s (%.1f%%, of which %.4f s inside Parallelize)",
              unattributed, window_ > 0.0 ? 100.0 * unattributed / window_ : 0.0,
              inner_unattributed_);
  result->Line(line);
}

std::string TracePath(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_build/traces", ec);
  return Fmt(".bench_build/traces/%s-seed%llu.json", args.workload.c_str(),
             static_cast<unsigned long long>(args.seed));
}

void LayerAccount::WriteTrace(const std::string& path) const {
  std::ofstream out(path);
  out << chrome_json_;
}

}  // namespace perfbench
