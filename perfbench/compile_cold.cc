// compile_cold: what a user pays to compile a new model, and the quality
// of the plan it gets.
//
// One caller compiles and simulates the nine fig8 rows in a seeded order,
// with 4 compile threads and the process-wide ILP memo cleared before each
// job, so every job is a cold compile. The unit of work is one pass over
// the nine jobs.
#include <sched.h>

#include <algorithm>

#include "perfbench/perfbench.h"
#include "src/baselines/baselines.h"
#include "src/intra/ilp_cache.h"
#include "src/support/trace.h"

namespace perfbench {
namespace {

using alpa::ExecutionStats;
using alpa::Metrics;
using alpa::ParallelPlan;
using alpa::StatusOr;

constexpr int kCompileThreads = 4;

struct Job {
  const Fig8Row* row = nullptr;
  ParallelPlan plan;  // From the first pass; later passes must reproduce it.
  ExecutionStats stats;
  bool have_plan = false;
};

// Cumulative counters of the ILP core; a pass reports its deltas.
struct SolverCounters {
  double presolve_s, elim_s, bnb_s, build_s, busy_s;
  int64_t explored, elim_cells, solves, optimal, aborted, transitions, tmax;

  static SolverCounters Take() {
    return {Metrics::Value("ilp/presolve/micros") * 1e-6,
            (Metrics::Value("ilp/elim/micros") + Metrics::Value("ilp/elim/plan_micros")) * 1e-6,
            Metrics::Value("ilp/bnb/micros") * 1e-6,
            Metrics::Value("ilp/build/micros") * 1e-6,
            SolverBusySeconds(),
            Metrics::Value("ilp/outcome/explored"),
            Metrics::Value("ilp/elim/cells"),
            Metrics::Value("ilp/solves"),
            Metrics::Value("ilp/outcome/optimal"),
            Metrics::Value("ilp/outcome/aborted"),
            Metrics::Value("stage_dp/transitions"),
            Metrics::Value("stage_dp/tmax_candidates")};
  }
};

struct PassTotals {
  double wall = 0.0;  // Sum of job times.
  double clustering = 0.0, dp = 0.0, core_other = 0.0, simulate = 0.0;
  int64_t memo_hits = 0, memo_misses = 0, simulates = 0;
  double gap_max = 0.0;
};

// One pass over the jobs in `order`; `account` is null on untraced passes.
PassTotals RunPass(std::vector<Job>& jobs, const std::vector<size_t>& order, Result* result,
                   LayerAccount* account) {
  PassTotals totals;
  for (size_t index : order) {
    Job& job = jobs[index];
    alpa::Graph graph = job.row->graph;  // Parallelize re-tags the graph.
    const alpa::ClusterSpec cluster = job.row->Cluster();
    const alpa::ParallelizeOptions options = Fig8Options(*job.row, kCompileThreads);

    const double t0 = Now();
    {
      alpa::TraceSpan span("intra:memo_clear", "perfbench");
      alpa::IlpMemoCache::Global().Clear();
    }
    const double busy0 = SolverBusySeconds();
    const double p0 = Now();
    StatusOr<ParallelPlan> plan = alpa::Status::Internal("not run");
    {
      alpa::TraceSpan span("core:parallelize", "perfbench");
      plan = alpa::Parallelize(graph, cluster, options);
    }
    const double parallelize_wall = Now() - p0;
    StatusOr<ExecutionStats> stats = alpa::Status::Internal("not compiled");
    const double s0 = Now();
    if (plan.ok()) {
      alpa::TraceSpan span("runtime:simulate", "perfbench");
      stats = alpa::Simulate(*plan, graph, cluster);
    }
    const double t1 = Now();
    totals.wall += t1 - t0;

    result->Check(plan.ok() && stats.ok(),
                  job.row->name + " compiles to a feasible plan: " +
                      (plan.ok() ? stats.status().ToString() : plan.status().ToString()));
    if (!plan.ok() || !stats.ok()) {
      continue;
    }
    const alpa::CompileStats& cs = plan->compile_stats;
    if (account != nullptr) {
      account->Split(cs, SolverBusySeconds() - busy0);
    }
    totals.clustering += cs.clustering_seconds;
    totals.dp += cs.dp_seconds;
    totals.core_other += cs.other_seconds + std::max(0.0, parallelize_wall - cs.total_seconds);
    totals.simulate += t1 - s0;
    totals.simulates += 1;
    totals.memo_hits += cs.ilp_cache_hits;
    totals.memo_misses += cs.ilp_cache_misses;
    totals.gap_max = std::max(totals.gap_max, cs.max_optimality_gap);

    // The simulator is deterministic: pricing the plan again must give the
    // same iteration time bit for bit.
    const StatusOr<ExecutionStats> again = alpa::Simulate(*plan, graph, cluster);
    result->Check(again.ok() && again->latency == stats->latency,
                  job.row->name + " re-simulates to the same iteration time");
    if (!job.have_plan) {
      job.plan = *std::move(plan);
      job.stats = *stats;
      job.have_plan = true;
    } else {
      // Every cold compile of a row is the same plan (PlanEquals
      // determinism of the compiler).
      result->Check(alpa::PlanEquals(job.plan.pipeline, plan->pipeline) &&
                        job.stats.latency == stats->latency,
                    job.row->name + " recompiles to the identical plan");
    }
  }
  return totals;
}

}  // namespace

Result RunCompileCold(const Args& args) {
  Result result;
  Rng rng(args.seed);

  // Set-up: build the nine fig8 graphs. Repeated twice on each CPU in turn
  // and the median reported: single-threaded work runs measurably slower on
  // the CPU that takes the VM's interrupts (about 1.5x on the 4-vCPU VM this
  // was tuned on), so where the scheduler happened to put the main thread
  // would otherwise decide the run's set-up time.
  std::vector<double> setup_samples;
  std::vector<Fig8Row> rows;
  cpu_set_t allowed;
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  const size_t reps = args.smoke ? 1 : 2 * cpus.size();
  for (size_t rep = 0; rep < reps; ++rep) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[rep % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    const double t0 = Now();
    rows = BuildFig8Rows();
    setup_samples.push_back(Now() - t0);
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  if (args.smoke) {
    // Three one-host rows (one per model family): the same layers at a
    // fraction of the time.
    std::erase_if(rows, [](const Fig8Row& row) {
      return row.num_gpus > 8 || row.name == "GPT-2.6B";
    });
  }
  std::string setup_text;
  for (double t : setup_samples) setup_text += Fmt(" %.2f", 1e3 * t);
  result.Line("set-up graph builds (ms):" + setup_text);
  std::vector<Job> jobs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) jobs[i].row = &rows[i];
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  std::string order_text;
  for (size_t i : order) order_text += " " + rows[i].name;
  result.Line("compile_cold: " + std::to_string(rows.size()) + " jobs, " +
              std::to_string(kCompileThreads) + " compile threads, order:" + order_text);

  // Timed passes (tracing off). A pass is never cut short; another starts
  // while it is expected to end less than half a pass past the window.
  std::vector<double> pass_seconds;
  const SolverCounters first_before = SolverCounters::Take();
  const double window_start = Now();
  while (pass_seconds.empty() ||
         (!args.smoke && !args.trace &&
          Now() - window_start + Median(pass_seconds) / 2 < args.seconds)) {
    pass_seconds.push_back(RunPass(jobs, order, &result, nullptr).wall);
    if (pass_seconds.size() == 1) {
      // The solver's work counts are deterministic: the smoke test compares
      // them across seeds (the seeded job order must not move them).
      const SolverCounters d = SolverCounters::Take();
      result.AddDeterministic("solver.nodes_explored", d.explored - first_before.explored,
                              "count");
      result.AddDeterministic("solver.optimal", d.optimal - first_before.optimal, "count");
      result.AddDeterministic("solver.aborted", d.aborted - first_before.aborted, "count");
      result.AddDeterministic("solver.solves", d.solves - first_before.solves, "count");
    }
    for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  }

  std::vector<double> pflops, latencies;
  for (const Job& job : jobs) {
    if (!job.have_plan) continue;
    pflops.push_back(job.stats.pflops);
    latencies.push_back(job.stats.latency);
    result.Line(Fmt("  %-13s iter %.6f s  %.4f PFLOPS  bubble %.4f", job.row->name.c_str(),
                    job.stats.latency, job.stats.pflops, job.stats.bubble_fraction));
    result.AddDeterministic("plan_iter_s." + job.row->name, job.stats.latency, "s");
  }
  const double plan_iter_s = latencies.size() == jobs.size() ? GeoMean(latencies) : 0.0;
  const double plan_pflops = pflops.size() == jobs.size() ? GeoMean(pflops) : 0.0;
  double total = 0.0;
  for (double s : pass_seconds) total += s;
  result.Line(Fmt("compile_pass_s %.4f s (median of %zu), plan_iter_s %.6f s, plan_pflops %.6f",
                  Median(pass_seconds), pass_seconds.size(), plan_iter_s, plan_pflops));
  result.AddDeterministic("plan_iter_s", plan_iter_s, "s");

  if (!args.trace) {
    // End-to-end metrics; the unit of work is one pass.
    result.Add("setup_s", Median(setup_samples), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("p50_ms", 1e3 * Median(pass_seconds), "ms");
    result.Add("tail_ms", 1e3 * *std::max_element(pass_seconds.begin(), pass_seconds.end()),
               "ms");
    result.Add("throughput_per_s",
               total > 0.0 ? static_cast<double>(jobs.size() * pass_seconds.size()) / total : 0.0,
               "1/s");
    result.Add("plan_pflops", plan_pflops, "PFLOPS");
  }

  if (!args.trace) {
    return result;
  }

  // Traced pass: the untraced pass above is the overhead baseline.
  {
    const SolverCounters before = SolverCounters::Take();
    LayerAccount account;
    const double untraced = pass_seconds.front();
    account.Begin();
    const double t0 = Now();
    const PassTotals pass = RunPass(jobs, order, &result, &account);
    const double window = Now() - t0;
    const SolverCounters after = SolverCounters::Take();
    account.End(window);
    account.Report(&result);
    account.WriteTrace(TracePath(args));
    result.Add("trace.overhead_share", untraced > 0.0 ? pass.wall / untraced - 1.0 : 0.0,
               "ratio");
    result.Add("models.build_ms", 1e3 * Median(setup_samples), "ms");
    result.Add("solver.wall_s", account.self_seconds(kSolver), "s");
    result.Add("solver.busy_s", after.busy_s - before.busy_s, "s");
    result.Add("solver.presolve_s", after.presolve_s - before.presolve_s, "s");
    result.Add("solver.elim_s", after.elim_s - before.elim_s, "s");
    result.Add("solver.bnb_s", after.bnb_s - before.bnb_s, "s");
    result.Add("solver.build_s", after.build_s - before.build_s, "s");
    result.Add("solver.clustering_s", pass.clustering, "s");
    result.Add("solver.nodes_explored", after.explored - before.explored, "count");
    result.Add("solver.elim_cells", after.elim_cells - before.elim_cells, "count");
    result.Add("solver.solves", after.solves - before.solves, "count");
    result.Add("solver.optimal", after.optimal - before.optimal, "count");
    result.Add("solver.aborted", after.aborted - before.aborted, "count");
    result.Add("solver.gap_max", pass.gap_max, "ratio");
    result.Add("intra.memo_hits", pass.memo_hits, "count");
    result.Add("intra.memo_misses", pass.memo_misses, "count");
    result.Add("intra.memo_hit_ratio",
               pass.memo_hits + pass.memo_misses > 0
                   ? static_cast<double>(pass.memo_hits) / (pass.memo_hits + pass.memo_misses)
                   : 0.0,
               "ratio");
    result.Add("inter.dp_s", pass.dp, "s");
    result.Add("inter.dp_transitions", after.transitions - before.transitions, "count");
    result.Add("inter.tmax_candidates", after.tmax - before.tmax, "count");
    result.Add("core.other_s", pass.core_other, "s");
    result.Add("runtime.simulate_ms",
               pass.simulates > 0 ? 1e3 * pass.simulate / pass.simulates : 0.0, "ms");
    double bubble = 0.0;
    for (const Job& job : jobs) bubble += job.stats.bubble_fraction;
    result.Add("runtime.bubble_fraction", jobs.empty() ? 0.0 : bubble / jobs.size(), "ratio");
    result.Line(Fmt("traced pass %.3f s vs untraced %.3f s; solver busy %.3f s, %lld nodes "
                    "explored, %lld optimal, %lld aborted",
                    pass.wall, untraced, after.busy_s - before.busy_s,
                    static_cast<long long>(after.explored - before.explored),
                    static_cast<long long>(after.optimal - before.optimal),
                    static_cast<long long>(after.aborted - before.aborted)));
  }

  // Plan-quality baseline rows: Alpa's simulated PFLOPS over the
  // intra-op-only baseline's, per fig8 job. Traced runs only: the baseline
  // compiles take about twice as long as a timed pass.
  alpa::BaselineOptionTemplate() = alpa::ParallelizeOptions::Builder()
                                       .search_budget(kSearchBudget)
                                       .threads(kCompileThreads)
                                       .Build();
  for (const Job& job : jobs) {
    if (!job.have_plan) continue;
    const alpa::BaselineResult intra =
        alpa::RunIntraOnly(job.row->graph, job.row->Cluster(), job.row->num_microbatches);
    const double ratio = intra.stats.ok() && intra.stats->pflops > 0.0
                             ? job.stats.pflops / intra.stats->pflops
                             : 0.0;
    result.Add("quality." + job.row->name, ratio, "ratio");
    result.Line(Fmt("  quality %-13s alpa %.6f / intra-only %s = %.4f%s", job.row->name.c_str(),
                    job.stats.pflops,
                    intra.stats.ok() ? Fmt("%.6f", intra.stats->pflops).c_str() : "x", ratio,
                    ratio > 0.0 && ratio < 1.0 ? "  (below the baseline)" : ""));
  }
  return result;
}

}  // namespace perfbench
