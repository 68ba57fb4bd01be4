// replan_warm: the failover cost an elastic controller pays.
//
// Each multi-host fig8 row gets a seeded elastic::SampleChurnEvents stream
// (Poisson failures plus scheduled joins and drains that keep the cluster
// within one host of its starting size). The rows' streams are interleaved
// and replayed in a loop; every event is applied to the row's LiveCluster
// and answered by a warm Parallelize + Simulate on the new cluster. Set-up
// compiles every configuration the streams visit, so each timed re-plan is
// all ILP memo hits and must reproduce the set-up plan exactly.
//
// Re-plan latency depends strongly on the row and the cluster size, and
// the seed decides how often each (row, configuration) class comes up. The
// reported latencies are therefore per-class statistics combined with a
// geometric mean over the classes: the seed moves the order of events, not
// the weight of a class.
#include <algorithm>
#include <map>

#include "perfbench/perfbench.h"
#include "src/elastic/churn.h"
#include "src/intra/ilp_cache.h"
#include "src/support/trace.h"

namespace perfbench {
namespace {

using alpa::ClusterSpec;
using alpa::ExecutionStats;
using alpa::ParallelPlan;
using alpa::StatusOr;
using alpa::elastic::ChurnEvent;
using alpa::elastic::ChurnEventKind;
using alpa::elastic::LiveCluster;

constexpr int kCompileThreads = 4;

// The set-up answer for one cluster configuration of one row.
struct Expected {
  int num_hosts = 0;
  alpa::StatusCode code = alpa::StatusCode::kOk;
  ParallelPlan plan;
  ExecutionStats stats;
};

struct RowStream {
  const Fig8Row* row = nullptr;
  ClusterSpec initial;
  std::vector<ChurnEvent> events;
  // Keyed by ClusterSpec::Fingerprint().
  std::map<uint64_t, Expected> expected;
};

// One interleaved event: which row, which event of its stream.
struct Step {
  size_t row = 0;
  size_t event = 0;
};

std::vector<ChurnEvent> SampleStream(const ClusterSpec& initial, uint64_t seed, Rng& rng) {
  constexpr double kDay = 86400.0;
  alpa::elastic::ChurnOptions churn;
  churn.horizon_seconds = kDay;
  // About eight failures a day, well above the library's 2.5-day per-host
  // MTBF default: the rate is chosen only so that every stream visits each
  // (row, cluster size) class, whose weight the per-class geomean removes.
  // Failures stop at one host below the starting size until a join
  // restores capacity.
  churn.host_mtbf_seconds = initial.num_hosts * kDay / 8.0;
  churn.min_hosts = initial.num_hosts - 1;
  churn.seed = seed;
  // A join first (so the larger configuration always comes up), then
  // drains and joins alternating: the size stays within one host of the
  // start.
  constexpr int kScheduled = 16;
  for (int i = 0; i < kScheduled; ++i) {
    ChurnEvent event;
    event.time = i * kDay / kScheduled;
    event.kind = i % 2 == 0 ? ChurnEventKind::kHostJoin : ChurnEventKind::kHostDrain;
    event.host = static_cast<int>(rng.Below(static_cast<uint64_t>(initial.num_hosts - 1)));
    event.device = initial.device;
    churn.scheduled.push_back(event);
  }
  return alpa::elastic::SampleChurnEvents(initial, churn);
}

struct Answer {
  alpa::StatusCode code = alpa::StatusCode::kOk;
  StatusOr<ParallelPlan> plan = alpa::Status::Internal("not run");
  StatusOr<ExecutionStats> stats = alpa::Status::Internal("not run");
  double parallelize_wall = 0.0;
  double simulate_wall = 0.0;
};

// Parallelize + Simulate of `row` on `cluster` (4 compile threads).
Answer Plan(const Fig8Row& row, const ClusterSpec& cluster, LayerAccount* account) {
  Answer answer;
  alpa::Graph graph = row.graph;
  const double busy0 = SolverBusySeconds();
  const double t0 = Now();
  {
    alpa::TraceSpan span("core:parallelize", "perfbench");
    answer.plan = alpa::Parallelize(graph, cluster, Fig8Options(row, kCompileThreads));
  }
  const double t1 = Now();
  answer.parallelize_wall = t1 - t0;
  if (answer.plan.ok()) {
    if (account != nullptr) {
      account->Split(answer.plan->compile_stats, SolverBusySeconds() - busy0);
    }
    alpa::TraceSpan span("runtime:simulate", "perfbench");
    answer.stats = alpa::Simulate(*answer.plan, graph, cluster);
    answer.simulate_wall = Now() - t1;
  }
  answer.code = !answer.plan.ok()  ? answer.plan.status().code()
                : !answer.stats.ok() ? answer.stats.status().code()
                                     : alpa::StatusCode::kOk;
  return answer;
}

struct Totals {
  int64_t events = 0, applied = 0, skipped = 0, memo_hits = 0, memo_misses = 0;
  double clustering = 0.0, dp = 0.0, core_other = 0.0, simulate = 0.0, replan = 0.0;
  int64_t simulates = 0;
};

// Replays `steps` (wrapping around) until `count` events were answered or
// `seconds` elapsed, whichever limit is set. Per-class latencies (seconds)
// go to `latencies` keyed by (row, fingerprint).
Totals Replay(std::vector<RowStream>& streams, const std::vector<Step>& steps, int64_t count,
              double seconds, Result* result, LayerAccount* account,
              std::map<std::pair<size_t, uint64_t>, std::vector<double>>* latencies) {
  Totals totals;
  std::vector<LiveCluster> live;
  for (const RowStream& s : streams) live.emplace_back(s.initial);
  const double start = Now();
  for (size_t i = 0;; ++i) {
    if (count > 0 ? totals.events >= count : Now() - start >= seconds) break;
    if (i == steps.size()) {
      i = 0;  // Next cycle: every row starts over from its initial cluster.
      live.clear();
      for (const RowStream& s : streams) live.emplace_back(s.initial);
    }
    const Step& step = steps[i];
    RowStream& stream = streams[step.row];
    const double t_event = Now();
    const alpa::Status applied = [&] {
      alpa::TraceSpan span("elastic:apply", "perfbench");
      return live[step.row].Apply(stream.events[step.event]);
    }();
    ++totals.events;
    if (!applied.ok()) {
      ++totals.skipped;
      continue;
    }
    ++totals.applied;
    const ClusterSpec& cluster = live[step.row].spec();
    const uint64_t fingerprint = cluster.Fingerprint();
    const Answer answer = Plan(*stream.row, cluster, account);
    const double latency = Now() - t_event;
    totals.replan += latency;
    (*latencies)[{step.row, fingerprint}].push_back(latency);

    const auto it = stream.expected.find(fingerprint);
    const std::string what = Fmt("%s on %d hosts", stream.row->name.c_str(), cluster.num_hosts);
    if (it == stream.expected.end()) {
      result->Check(false, what + ": configuration was not compiled during set-up");
      continue;
    }
    const Expected& want = it->second;
    if (want.code != alpa::StatusCode::kOk || answer.code != alpa::StatusCode::kOk) {
      // A structured verdict (kInfeasible, kResourceExhausted) is a correct
      // answer when the set-up compile reached the same one.
      result->Check(answer.code == want.code, what + ": verdict differs from set-up");
      continue;
    }
    result->Check(alpa::PlanEquals(want.plan.pipeline, answer.plan->pipeline) &&
                      want.stats.latency == answer.stats->latency,
                  what + ": warm re-plan differs from the set-up plan");
    const alpa::CompileStats& cs = answer.plan->compile_stats;
    result->Check(cs.ilp_cache_misses == 0, what + ": warm re-plan missed the ILP memo");
    totals.memo_hits += cs.ilp_cache_hits;
    totals.memo_misses += cs.ilp_cache_misses;
    totals.clustering += cs.clustering_seconds;
    totals.dp += cs.dp_seconds;
    totals.core_other +=
        cs.other_seconds + std::max(0.0, answer.parallelize_wall - cs.total_seconds);
    totals.simulate += answer.simulate_wall;
    ++totals.simulates;
  }
  return totals;
}

// Per-class statistic `stat` of the latencies, geometric mean over classes.
template <typename Stat>
double ClassGeoMean(const std::map<std::pair<size_t, uint64_t>, std::vector<double>>& latencies,
                    Stat stat) {
  std::vector<double> per_class;
  for (const auto& [key, values] : latencies) per_class.push_back(stat(values));
  return GeoMean(per_class);
}

}  // namespace

Result RunReplanWarm(const Args& args) {
  Result result;
  Rng rng(args.seed);
  std::vector<Fig8Row> rows = BuildFig8Rows();
  std::erase_if(rows, [&](const Fig8Row& row) {
    // Smoke: the one cheap multi-host row.
    return row.num_gpus < 16 || (args.smoke && row.name != "WResNet-4B");
  });

  // The streams depend only on the seed.
  std::vector<RowStream> streams(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    streams[r].row = &rows[r];
    streams[r].initial = rows[r].Cluster();
    streams[r].events = SampleStream(streams[r].initial, rng.Next(), rng);
  }
  std::vector<Step> steps;
  for (size_t e = 0;; ++e) {
    bool any = false;
    for (size_t r = 0; r < streams.size(); ++r) {
      if (e < streams[r].events.size()) {
        steps.push_back({r, e});
        any = true;
      }
    }
    if (!any) break;
  }

  // Set-up: compile every configuration the streams visit, from a cold ILP
  // memo. Repeated; the median is reported and the last repetition's plans
  // are the expected answers.
  std::vector<double> setup_samples;
  int64_t setup_applied = 0, setup_skipped = 0;
  for (int rep = 0; rep < (args.smoke ? 1 : 3); ++rep) {
    const double t0 = Now();
    alpa::IlpMemoCache::Global().Clear();
    setup_applied = setup_skipped = 0;
    for (RowStream& stream : streams) {
      stream.expected.clear();
      LiveCluster live(stream.initial);
      std::vector<ClusterSpec> visited = {stream.initial};
      for (const ChurnEvent& event : stream.events) {
        if (live.Apply(event).ok()) {
          ++setup_applied;
          visited.push_back(live.spec());
        } else {
          ++setup_skipped;
        }
      }
      for (const ClusterSpec& cluster : visited) {
        const uint64_t fingerprint = cluster.Fingerprint();
        if (stream.expected.count(fingerprint) > 0) continue;
        Answer answer = Plan(*stream.row, cluster, nullptr);
        Expected& want = stream.expected[fingerprint];
        want.num_hosts = cluster.num_hosts;
        want.code = answer.code;
        if (answer.code == alpa::StatusCode::kOk) {
          want.plan = *std::move(answer.plan);
          want.stats = *answer.stats;
        }
      }
    }
    setup_samples.push_back(Now() - t0);
  }
  std::vector<double> pflops;
  for (const RowStream& stream : streams) {
    std::string line = Fmt("  %-13s %zu events:", stream.row->name.c_str(), stream.events.size());
    for (const auto& [fingerprint, want] : stream.expected) {
      if (want.code == alpa::StatusCode::kOk) {
        pflops.push_back(want.stats.pflops);
        line += Fmt(" [%d hosts: %.4f PFLOPS]", want.num_hosts, want.stats.pflops);
      } else {
        line += Fmt(" [%d hosts: %s]", want.num_hosts, alpa::StatusCodeName(want.code));
      }
      result.AddDeterministic(Fmt("verdict.%s.%016llx", stream.row->name.c_str(),
                                  static_cast<unsigned long long>(fingerprint)),
                              static_cast<double>(want.code), "code");
    }
    result.Line(line);
  }
  result.Line(Fmt("replan_warm: %zu rows, %zu interleaved events per cycle, %d compile threads, "
                  "set-up %.3f s (median of %zu)",
                  streams.size(), steps.size(), kCompileThreads, Median(setup_samples),
                  setup_samples.size()));

  std::map<std::pair<size_t, uint64_t>, std::vector<double>> latencies;
  const Totals timed = Replay(streams, steps, args.smoke ? static_cast<int64_t>(steps.size()) : 0,
                              args.trace ? args.seconds / 2 : args.seconds, &result, nullptr,
                              &latencies);
  const auto median = [](const std::vector<double>& v) { return Median(v); };
  const auto p90 = [](const std::vector<double>& v) { return Percentile(v, 0.9); };
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / v.size();
  };
  std::vector<double> pooled;
  double class_mean_sum = 0.0;
  for (const auto& [key, values] : latencies) {
    pooled.insert(pooled.end(), values.begin(), values.end());
    class_mean_sum += mean(values);
  }
  const double class_mean = latencies.empty() ? 0.0 : class_mean_sum / latencies.size();
  result.Line(Fmt("replan_p50_ms %.3f, replan_p99_ms %.3f (pooled over %zu re-plans); per-class "
                  "geomean p50 %.3f ms, p90 %.3f ms over %zu classes; memo hits %lld, misses %lld",
                  1e3 * Median(pooled), 1e3 * Percentile(pooled, 0.99), pooled.size(),
                  1e3 * ClassGeoMean(latencies, median), 1e3 * ClassGeoMean(latencies, p90),
                  latencies.size(), static_cast<long long>(timed.memo_hits),
                  static_cast<long long>(timed.memo_misses)));
  result.AddDeterministic("intra.memo_hit_ratio",
                          timed.memo_hits + timed.memo_misses > 0
                              ? static_cast<double>(timed.memo_hits) /
                                    (timed.memo_hits + timed.memo_misses)
                              : 0.0,
                          "ratio");
  result.AddDeterministic("plan_pflops", GeoMean(pflops), "PFLOPS");

  if (!args.trace) {
    result.Add("setup_s", Median(setup_samples), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("p50_ms", 1e3 * ClassGeoMean(latencies, median), "ms");
    result.Add("tail_ms", 1e3 * ClassGeoMean(latencies, p90), "ms");
    result.Add("throughput_per_s", class_mean > 0.0 ? 1.0 / class_mean : 0.0, "1/s");
    result.Add("plan_pflops", GeoMean(pflops), "PFLOPS");
    return result;
  }

  // Traced run: replay the same events again with tracing on; the untraced
  // replay above is the overhead baseline.
  LayerAccount account;
  std::map<std::pair<size_t, uint64_t>, std::vector<double>> traced_latencies;
  const int64_t transitions0 = alpa::Metrics::Value("stage_dp/transitions");
  const int64_t tmax0 = alpa::Metrics::Value("stage_dp/tmax_candidates");
  account.Begin();
  const double t0 = Now();
  const Totals traced =
      Replay(streams, steps, timed.events, 0.0, &result, &account, &traced_latencies);
  account.End(Now() - t0);
  account.Report(&result);
  account.WriteTrace(TracePath(args));
  const double n = static_cast<double>(std::max<int64_t>(1, traced.applied));
  result.Add("trace.overhead_share", timed.replan > 0.0 ? traced.replan / timed.replan - 1.0 : 0.0,
             "ratio");
  result.Add("solver.clustering_s", traced.clustering / n, "s");
  result.Add("inter.dp_s", traced.dp / n, "s");
  result.Add("inter.dp_transitions",
             (alpa::Metrics::Value("stage_dp/transitions") - transitions0) / n, "count");
  result.Add("inter.tmax_candidates",
             (alpa::Metrics::Value("stage_dp/tmax_candidates") - tmax0) / n, "count");
  result.Add("core.other_s", traced.core_other / n, "s");
  result.Add("runtime.simulate_ms",
             traced.simulates > 0 ? 1e3 * traced.simulate / traced.simulates : 0.0, "ms");
  result.Add("intra.memo_hits", traced.memo_hits / n, "count");
  result.Add("intra.memo_misses", traced.memo_misses / n, "count");
  result.Add("intra.memo_hit_ratio",
             traced.memo_hits + traced.memo_misses > 0
                 ? static_cast<double>(traced.memo_hits) / (traced.memo_hits + traced.memo_misses)
                 : 0.0,
             "ratio");
  result.Add("elastic.events_applied", setup_applied, "count");
  result.Add("elastic.events_skipped", setup_skipped, "count");
  return result;
}

}  // namespace perfbench
