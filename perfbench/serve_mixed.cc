// serve_mixed: a self-hosted plan server under a mixed, closed-loop load.
//
// A PlanServer (2 workers, disk cache in the run's work directory) is
// called by 2 client threads through RemotePlanService::Call, the path real
// callers take: one connection per call, and each client sends its next
// request only after the reply arrived (closed loop: a plan's callers each
// wait for their reply). Each client draws its requests from its own seeded
// stream:
//   * 75% Parallelize of one of the 18 fig8 keys (9 rows x 2 microbatch
//     counts), warmed during set-up: cache hits with large wire payloads.
//     Keys are drawn Zipf-like, P(rank i) ~ 1 / i^0.735: the exponent is the
//     midpoint of the 0.64-0.83 range Breslau et al. measured on web-proxy
//     traces ("Web Caching and Zipf-like Distributions", INFOCOM 1999). No
//     public trace ranks model sizes for a plan service, so the rank order
//     is fixed by graph size, smallest graph first;
//   * 15% Simulate of one of those keys' plans;
//   * 10% Parallelize of a never-seen small MLP: a few-ms compile, a cache
//     insert and a disk write.
// Hits and inserts share the cache, so a gain for hits that costs inserts
// shows.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/models/mlp.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/support/trace.h"

namespace perfbench {
namespace {

using alpa::ExecutionStats;
using alpa::ParallelPlan;
using alpa::StatusOr;
using alpa::serve::Method;
using alpa::serve::PlanRequest;
using alpa::serve::ServeRequest;
using alpa::serve::ServeResponse;

constexpr int kWorkers = 2;
constexpr int kClients = 2;
constexpr int kCompileThreads = 4;
constexpr double kSimulateShare = 0.15;
constexpr double kNewKeyShare = 0.10;
constexpr double kSessionSeconds = 1.0;
// Zipf-like exponent of the fig8 key popularity (see the header comment).
constexpr double kZipfExponent = 0.735;

struct Key {
  const Fig8Row* row = nullptr;
  int num_microbatches = 0;
  PlanRequest request;
  ParallelPlan plan;  // The in-process answer: every served plan must equal it.
  ExecutionStats stats;
};

alpa::serve::PlanRequestOptions RequestOptions(int num_microbatches, int target_layers) {
  alpa::serve::PlanRequestOptions options;
  options.num_microbatches = num_microbatches;
  options.target_layers = target_layers;
  options.max_search_nodes = kSearchBudget;
  options.tenant = "perfbench";
  options.compile_threads = kCompileThreads;  // Local-only: ignored on the wire.
  return options;
}

// The never-seen MLP of index `n`: small, with a size that does not drift
// as n grows (the dims cycle through 32^3 combinations).
PlanRequest NewKeyRequest(uint64_t n) {
  alpa::MlpConfig config;
  config.batch = 16;
  config.input_dim = 64 + 8 * static_cast<int64_t>(n % 32);
  config.hidden_dims = {128 + 8 * static_cast<int64_t>((n / 32) % 32)};
  config.output_dim = 64 + 8 * static_cast<int64_t>((n / 1024) % 32);
  PlanRequest request;
  request.graph = alpa::BuildMlp(config);
  request.cluster = alpa::ClusterSpec::AwsP3(1, 2);
  request.options = RequestOptions(4, 2);
  return request;
}

ServeRequest ToServe(Method method, const PlanRequest& request) {
  ServeRequest serve;
  serve.method = method;
  serve.options = request.options;
  serve.graph = request.graph;
  serve.cluster = request.cluster;
  return serve;
}

enum class Kind { kHit, kSimulate, kNewKey };

struct Sample {
  Kind kind = Kind::kHit;
  double latency = 0.0;
  // Traced runs only: the same payloads through the wire codec alone, and
  // (hits) the in-process cache hit.
  double wire = 0.0;
  double inproc = 0.0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
};

// What one client did; merged after the window.
struct ClientLog {
  std::vector<Sample> samples;
  std::vector<std::pair<uint64_t, ParallelPlan>> new_keys;  // Verified after the window.
  Result checks;
};

struct Shared {
  std::vector<Key>* keys = nullptr;
  std::vector<double> zipf_cdf;
  std::string socket;
  std::atomic<uint64_t>* next_new_key = nullptr;
  uint64_t new_key_base = 0;
  bool trace = false;
};

// One client session: closed-loop requests until `seconds` elapsed or
// `max_requests` were sent, whichever limit is set.
void ClientLoop(const Shared& shared, Rng* rng_state, double seconds, int64_t max_requests,
                LayerAccount* account, ClientLog* log) {
  Rng& rng = *rng_state;
  alpa::serve::RemotePlanService client(shared.socket);
  alpa::serve::InProcessPlanService inproc;
  const double start = Now();
  for (int64_t n = 0;; ++n) {
    if (max_requests > 0 ? n >= max_requests : Now() - start >= seconds) break;
    const double u = rng.Uniform();
    Sample sample;
    ServeRequest request;
    Key* key = nullptr;
    uint64_t new_key = 0;
    if (u < kNewKeyShare) {
      sample.kind = Kind::kNewKey;
      new_key = shared.new_key_base + shared.next_new_key->fetch_add(1);
      request = ToServe(Method::kParallelize, NewKeyRequest(new_key));
    } else {
      const double z = rng.Uniform();
      size_t k = 0;
      while (k + 1 < shared.zipf_cdf.size() && z >= shared.zipf_cdf[k]) ++k;
      key = &(*shared.keys)[k];
      if (u < kNewKeyShare + kSimulateShare) {
        sample.kind = Kind::kSimulate;
        request = ToServe(Method::kSimulate, key->request);
        request.has_plan = true;
        request.plan = key->plan;
      } else {
        sample.kind = Kind::kHit;
        request = ToServe(Method::kParallelize, key->request);
      }
    }

    const double t0 = Now();
    StatusOr<ServeResponse> response = alpa::Status::Internal("not sent");
    {
      alpa::TraceSpan span("serve:call", "perfbench");
      response = client.Call(request);
      if (account != nullptr && response.ok()) {
        if (sample.kind == Kind::kSimulate) {
          account->Move(kServe, kRuntime, response->compile_seconds);
        } else if (!response->plan_cache_hit && response->has_plan) {
          // The response's CompileStats do not separate the ILP core from
          // the rest of the profiling sweep, and the process-wide ILP
          // counters also move with the other client's requests, so the
          // whole sweep of a server-side compile goes to intra.
          account->Split(response->plan.compile_stats, 0.0, kServe);
        }
      }
    }
    sample.latency = Now() - t0;

    const bool ok = response.ok() && response->code == 0;
    const std::string what =
        sample.kind == Kind::kNewKey
            ? Fmt("new MLP key %llu", static_cast<unsigned long long>(new_key))
            : Fmt("%s x%d %s", key->row->name.c_str(), key->num_microbatches,
                  sample.kind == Kind::kSimulate ? "simulate" : "plan");
    if (!ok) {
      log->checks.Check(false, what + ": " +
                                   (response.ok() ? response->ToStatus().ToString()
                                                  : response.status().ToString()));
      continue;
    }
    switch (sample.kind) {
      case Kind::kHit:
        log->checks.Check(response->has_plan &&
                              alpa::PlanEquals(key->plan.pipeline, response->plan.pipeline),
                          what + ": served plan differs from the in-process plan");
        break;
      case Kind::kSimulate:
        log->checks.Check(response->has_stats && response->stats.latency == key->stats.latency &&
                              response->stats.pflops == key->stats.pflops &&
                              response->stats.peak_memory_bytes == key->stats.peak_memory_bytes,
                          what + ": served stats differ from the in-process Simulate");
        break;
      case Kind::kNewKey:
        if (response->has_plan) {
          log->new_keys.emplace_back(new_key, response->plan);
        } else {
          log->checks.Check(false, what + ": response carries no plan");
        }
        break;
    }

    if (shared.trace) {
      // The wire codec on the same payloads, and the in-process cache hit.
      alpa::TraceSpan span("serve:wire", "perfbench");
      const double w0 = Now();
      const std::string blob = alpa::serve::SerializeRequest(request);
      const bool decoded = alpa::serve::DeserializeRequest(blob).ok();
      bool plan_decoded = true;
      if (response->has_plan) {
        plan_decoded =
            alpa::serve::DeserializePlan(alpa::serve::SerializePlan(response->plan)).ok();
      }
      sample.wire = Now() - w0;
      log->checks.Check(decoded && plan_decoded, what + ": wire round trip failed");
      sample.request_bytes = static_cast<int64_t>(blob.size());
      sample.response_bytes =
          static_cast<int64_t>(alpa::serve::SerializeResponse(*response).size());
    }
    if (shared.trace && sample.kind == Kind::kHit) {
      alpa::TraceSpan span("serve:inproc_hit", "perfbench");
      const double h0 = Now();
      const StatusOr<ParallelPlan> hit = inproc.Parallelize(key->request);
      sample.inproc = Now() - h0;
      log->checks.Check(hit.ok() && inproc.last_outcome().plan_cache_hit,
                        what + ": in-process lookup missed the warm cache");
    }
    log->samples.push_back(sample);
  }
}

struct Window {
  std::vector<ClientLog> logs;
  double wall = 0.0;  // Per client (they start and stop together).
  alpa::serve::ServerStats stats_before, stats_after;
  int64_t compiles = 0, disk_hits = 0;
};

Window RunWindow(const Shared& shared, uint64_t seed, double seconds, int64_t max_requests,
                 alpa::serve::PlanServer& server, LayerAccount* account) {
  Window window;
  window.logs.resize(kClients);
  window.stats_before = server.stats();
  const int64_t compiles0 = alpa::Metrics::Value("serve/compiles");
  const int64_t disk_hits0 = alpa::Metrics::Value("plan_cache/disk_hits");
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(seed * 1000003 + c);
  const double t0 = Now();
  do {
    // Client threads are restarted every session, so no placement of a few
    // long-lived threads on the CPUs decides a whole run.
    const double session = std::min(kSessionSeconds, seconds - (Now() - t0));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, std::cref(shared), &rngs[c], session, max_requests,
                           account, &window.logs[c]);
    }
    for (std::thread& t : clients) t.join();
  } while (max_requests == 0 && Now() - t0 < seconds);
  window.wall = Now() - t0;
  window.stats_after = server.stats();
  window.compiles = alpa::Metrics::Value("serve/compiles") - compiles0;
  window.disk_hits = alpa::Metrics::Value("plan_cache/disk_hits") - disk_hits0;
  return window;
}

}  // namespace

Result RunServeMixed(const Args& args) {
  Result result;
  Rng rng(args.seed);

  // --- Set-up: graphs, the server, and the 18 warm keys. ---
  const double setup_start = Now();
  std::vector<Fig8Row> rows = BuildFig8Rows();
  const double build_ms = 1e3 * (Now() - setup_start);
  if (args.smoke) {
    std::erase_if(rows, [](const Fig8Row& row) { return row.name != "WResNet-2B"; });
  }
  std::vector<Key> keys;
  for (const Fig8Row& row : rows) {
    for (int mb : {row.num_microbatches, row.num_microbatches / 2}) {
      Key key;
      key.row = &row;
      key.num_microbatches = mb;
      key.request.graph = row.graph;
      key.request.cluster = row.Cluster();
      key.request.options = RequestOptions(mb, row.target_layers);
      keys.push_back(std::move(key));
    }
  }
  alpa::serve::ServerOptions server_options;
  server_options.socket_path = args.work_dir + "/serve.sock";
  server_options.plan_cache_dir = args.work_dir + "/cache";
  server_options.num_workers = kWorkers;
  alpa::serve::PlanServer server(server_options);
  const alpa::Status started = server.Start();
  result.Check(started.ok(), "server starts: " + started.ToString());
  if (!started.ok()) {
    return result;
  }
  alpa::serve::InProcessPlanService inproc;
  std::vector<double> pflops;
  for (Key& key : keys) {
    StatusOr<ParallelPlan> plan = inproc.Parallelize(key.request);
    StatusOr<ExecutionStats> stats =
        plan.ok() ? inproc.Simulate(key.request, *plan) : StatusOr<ExecutionStats>(plan.status());
    result.Check(plan.ok() && stats.ok(),
                 Fmt("%s x%d warms: %s", key.row->name.c_str(), key.num_microbatches,
                     stats.status().ToString().c_str()));
    if (!plan.ok() || !stats.ok()) {
      return result;
    }
    key.plan = *std::move(plan);
    key.stats = *stats;
    pflops.push_back(stats->pflops);
    result.AddDeterministic(Fmt("plan_iter_s.%s.x%d", key.row->name.c_str(), key.num_microbatches),
                            stats->latency, "s");
  }
  const double setup_s = Now() - setup_start;

  Shared shared;
  shared.keys = &keys;
  // Popularity rank: smallest graph first; a row's full microbatch count
  // ranks before its half.
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.row->graph.size() < b.row->graph.size();
  });
  double norm = 0.0;
  for (size_t k = 0; k < keys.size(); ++k) norm += std::pow(k + 1.0, -kZipfExponent);
  double cdf = 0.0;
  for (size_t k = 0; k < keys.size(); ++k) {
    cdf += std::pow(k + 1.0, -kZipfExponent) / norm;
    shared.zipf_cdf.push_back(cdf);
  }
  shared.socket = server_options.socket_path;
  std::atomic<uint64_t> next_new_key{0};
  shared.next_new_key = &next_new_key;
  shared.new_key_base = rng.Below(32 * 32 * 32);
  result.Line(Fmt("serve_mixed: %zu warm keys, %d workers, %d closed-loop clients, set-up %.3f s",
                  keys.size(), kWorkers, kClients, setup_s));
  std::string popularity = "  key popularity:";
  for (size_t k = 0; k < keys.size(); ++k) {
    popularity += Fmt(" %s/x%d %.3f", keys[k].row->name.c_str(), keys[k].num_microbatches,
                      shared.zipf_cdf[k] - (k > 0 ? shared.zipf_cdf[k - 1] : 0.0));
  }
  result.Line(popularity);

  const int64_t smoke_requests = args.smoke ? 40 : 0;
  const uint64_t seed = rng.Next();
  const Window timed = RunWindow(shared, seed, args.trace ? args.seconds / 2 : args.seconds,
                                 smoke_requests, server, nullptr);
  Window traced;
  LayerAccount account;
  if (args.trace) {
    shared.trace = true;
    account.Begin();
    traced = RunWindow(shared, seed + 1, args.seconds / 2, smoke_requests, server, &account);
    account.End(kClients * traced.wall);
  }
  server.Stop();

  // Served never-seen keys must equal an independent in-process compile
  // (plan cache bypassed).
  const Window* windows[] = {&timed, &traced};
  for (const Window* window : windows) {
    for (const ClientLog& log : window->logs) {
      result.attempted += log.checks.attempted;
      result.failed += log.checks.failed;
      result.correct = result.correct && log.checks.correct;
      for (const std::string& line : log.checks.report) result.Line(line);
      for (const auto& [n, served] : log.new_keys) {
        PlanRequest request = NewKeyRequest(n);
        request.options.use_plan_cache = false;
        const StatusOr<ParallelPlan> plan = inproc.Parallelize(request);
        result.Check(plan.ok() && alpa::PlanEquals(plan->pipeline, served.pipeline),
                     Fmt("new MLP key %llu: served plan differs from an in-process compile",
                         static_cast<unsigned long long>(n)));
      }
    }
  }

  std::vector<double> latencies;
  for (const ClientLog& log : timed.logs) {
    for (const Sample& s : log.samples) latencies.push_back(s.latency);
  }
  const double rps = timed.wall > 0.0 ? latencies.size() / timed.wall : 0.0;
  std::string per_kind = "per kind (p50/p99 ms):";
  const char* const kKindNames[] = {"hit", "simulate", "new-key"};
  for (Kind kind : {Kind::kHit, Kind::kSimulate, Kind::kNewKey}) {
    std::vector<double> of_kind;
    for (const ClientLog& log : timed.logs) {
      for (const Sample& s : log.samples) {
        if (s.kind == kind) of_kind.push_back(s.latency);
      }
    }
    per_kind += Fmt(" %s %zu x %.3f/%.3f", kKindNames[static_cast<int>(kind)], of_kind.size(),
                    1e3 * Median(of_kind), 1e3 * Percentile(of_kind, 0.99));
  }
  result.Line(Fmt("serve_p50_ms %.4f, serve_p99_ms %.4f, serve_rps %.1f over %zu requests in "
                  "%.2f s; %lld compiles, %lld rejected",
                  1e3 * Median(latencies), 1e3 * Percentile(latencies, 0.99), rps,
                  latencies.size(), timed.wall, static_cast<long long>(timed.compiles),
                  static_cast<long long>(timed.stats_after.rejected_queue -
                                         timed.stats_before.rejected_queue)));
  result.Line(per_kind);
  result.AddDeterministic("plan_pflops", GeoMean(pflops), "PFLOPS");

  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("p50_ms", 1e3 * Median(latencies), "ms");
    result.Add("tail_ms", 1e3 * Percentile(latencies, 0.99), "ms");
    result.Add("throughput_per_s", rps, "1/s");
    result.Add("plan_pflops", GeoMean(pflops), "PFLOPS");
    return result;
  }

  account.Report(&result);
  account.WriteTrace(TracePath(args));
  double hit_latency = 0.0, hit_wire = 0.0, hit_inproc = 0.0, wire = 0.0, traced_latency = 0.0;
  double request_bytes = 0.0, response_bytes = 0.0;
  int64_t hits = 0, samples = 0, parallelizes = 0;
  for (const ClientLog& log : traced.logs) {
    for (const Sample& s : log.samples) {
      ++samples;
      parallelizes += s.kind != Kind::kSimulate;
      traced_latency += s.latency;
      wire += s.wire;
      request_bytes += s.request_bytes;
      response_bytes += s.response_bytes;
      if (s.kind == Kind::kHit) {
        ++hits;
        hit_latency += s.latency;
        hit_wire += s.wire;
        hit_inproc += s.inproc;
      }
    }
  }
  double untraced_latency = 0.0;
  for (double l : latencies) untraced_latency += l;
  const auto per = [](double total, int64_t n) { return n > 0 ? total / n : 0.0; };
  result.Add("trace.overhead_share",
             untraced_latency > 0.0 && samples > 0
                 ? per(traced_latency, samples) / per(untraced_latency, latencies.size()) - 1.0
                 : 0.0,
             "ratio");
  result.Add("models.build_ms", build_ms, "ms");
  result.Add("serve.wire_ms", 1e3 * per(wire, samples), "ms");
  result.Add("serve.inproc_hit_ms", 1e3 * per(hit_inproc, hits), "ms");
  result.Add("serve.transport_ms", 1e3 * per(hit_latency - hit_wire - hit_inproc, hits), "ms");
  result.Add("serve.request_bytes", per(request_bytes, samples), "bytes");
  result.Add("serve.response_bytes", per(response_bytes, samples), "bytes");
  result.Add("serve.hit_ratio",
             per(static_cast<double>(traced.stats_after.plan_cache_hits -
                                     traced.stats_before.plan_cache_hits),
                 parallelizes),
             "ratio");
  result.Add("serve.compiles", traced.compiles, "count");
  result.Add("serve.disk_hits", traced.disk_hits, "count");
  result.Add("serve.rejected",
             traced.stats_after.rejected_queue - traced.stats_before.rejected_queue, "count");
  return result;
}

}  // namespace perfbench
