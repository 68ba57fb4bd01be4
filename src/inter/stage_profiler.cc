#include "src/inter/stage_profiler.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "src/intra/ilp_cache.h"
#include "src/support/logging.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace alpa {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifndef NDEBUG
// Full structural signature of a layer subgraph; only used to cross-check
// the 64-bit StructuralHash for collisions in debug builds.
std::string LayerSignature(const Graph& graph) {
  std::string sig;
  for (const Operator& op : graph.ops()) {
    sig += OpTypeName(op.type);
    sig += static_cast<char>('0' + static_cast<int>(op.role));
    sig += op.shape.ToString();
    sig += DTypeName(op.dtype);
    if (op.einsum.valid()) {
      sig += op.einsum.ToString();
    }
    for (int operand : op.operands) {
      sig += ",";
      sig += std::to_string(operand);
    }
    sig += ";";
  }
  return sig;
}
#endif

// Plan-space restriction realizing a memory mode, composed with any
// caller-provided filter.
AlgorithmFilter ModeFilter(MemoryMode mode, AlgorithmFilter base) {
  if (mode == MemoryMode::kTimeOptimal) {
    return base;
  }
  return [mode, base](const Graph& graph, const DeviceMesh& mesh, const Operator& op,
                      const ParallelAlgorithm& a) {
    if (base && !base(graph, mesh, op, a)) {
      return false;
    }
    if (op.type == OpType::kUpdate && op.shape.elements() > 1024) {
      return !a.output_spec.IsFullyReplicated();
    }
    if (mode == MemoryMode::kShardWeights && op.type == OpType::kParameter &&
        op.shape.elements() > 1024) {
      return !a.output_spec.IsFullyReplicated();
    }
    return true;
  };
}

}  // namespace

std::string StageVariant::ToString() const {
  const char* mode_name = mode == MemoryMode::kTimeOptimal
                              ? "time"
                              : (mode == MemoryMode::kShardOptimizer ? "zero2" : "zero3");
  return StrFormat("%s log(%d,%d) %s", physical.ToString().c_str(), logical[0], logical[1],
                   mode_name);
}

StageProfiler::StageProfiler(const Graph& graph, const ClusterSpec& cluster,
                             const std::vector<SubmeshShape>& shapes,
                             StageProfilerOptions options, ThreadPool* pool)
    : graph_(graph), cluster_(cluster), options_(options), pool_(pool) {
  num_layers_ = graph.NumLayers();
  ALPA_CHECK_GT(num_layers_, 0) << "Graph must be layer-tagged before profiling";
  std::vector<std::pair<int, int>> layer_ranges;
  layer_ranges.reserve(static_cast<size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    layer_ranges.emplace_back(l, l);
  }
  layer_subgraphs_ = ExtractStages(graph, layer_ranges);

  // Structural dedup of identical layers, keyed on the 64-bit hash. The
  // hashes double as memo-cache keys, so they are computed even when dedup
  // is disabled.
  dedup_layer_.resize(static_cast<size_t>(num_layers_));
  layer_hashes_.resize(static_cast<size_t>(num_layers_));
  std::unordered_map<uint64_t, int> first_seen;
  for (int l = 0; l < num_layers_; ++l) {
    const uint64_t hash = StructuralHash(layer_subgraphs_[static_cast<size_t>(l)].graph);
    layer_hashes_[static_cast<size_t>(l)] = hash;
    if (!options_.dedup_identical_layers) {
      dedup_layer_[static_cast<size_t>(l)] = l;
      continue;
    }
    auto [it, inserted] = first_seen.emplace(hash, l);
    dedup_layer_[static_cast<size_t>(l)] = it->second;
#ifndef NDEBUG
    if (!inserted) {
      ALPA_CHECK(LayerSignature(layer_subgraphs_[static_cast<size_t>(l)].graph) ==
                 LayerSignature(layer_subgraphs_[static_cast<size_t>(it->second)].graph))
          << "StructuralHash collision between layers " << it->second << " and " << l;
    }
#endif
  }

  // Expand (physical shape x logical shape x memory mode).
  const std::vector<MemoryMode> modes =
      options_.memory_modes
          ? std::vector<MemoryMode>{MemoryMode::kTimeOptimal, MemoryMode::kShardOptimizer,
                                    MemoryMode::kShardWeights}
          : std::vector<MemoryMode>{MemoryMode::kTimeOptimal};
  for (const SubmeshShape& shape : shapes) {
    for (const std::array<int, 2>& logical : DeviceMesh::LogicalShapeOptions(shape)) {
      for (MemoryMode mode : modes) {
        variants_.push_back(StageVariant{shape, logical, mode});
        dp_shapes_.push_back(shape);
      }
    }
  }

  // once_flag is immovable, so rows are emplaced at their final size and
  // never copied or resized.
  layer_cache_.reserve(static_cast<size_t>(num_layers_));
  for (int l = 0; l < num_layers_; ++l) {
    layer_cache_.emplace_back(variants_.size());
  }

  // Eager sweep: pre-solve every dedup-canonical cell across the pool. The
  // interval DP touches exactly this set, so the sweep does no extra work;
  // it only reorders it onto concurrent workers. Cell results are
  // independent of solve order, so the sweep leaves the profiler in the
  // same state lazy solving would.
  if (pool_ != nullptr && pool_->num_threads() > 1 && !options_.exact_intervals) {
    // Category "pool": this span only exists when a pool drives the sweep,
    // so the "compile"-category span set stays identical across thread
    // counts (the determinism tests compare exactly that set).
    TraceSpan sweep_span("profiling_sweep", "pool");
    const double sweep_start = NowSeconds();
    std::vector<std::pair<int, int>> cells;
    cells.reserve(static_cast<size_t>(num_layers_) * variants_.size());
    for (int l = 0; l < num_layers_; ++l) {
      if (dedup_layer_[static_cast<size_t>(l)] != l) {
        continue;
      }
      for (int v = 0; v < static_cast<int>(variants_.size()); ++v) {
        cells.emplace_back(l, v);
      }
    }
    ParallelFor(pool_, static_cast<int64_t>(cells.size()), [&](int64_t i) {
      const auto& [layer, variant] = cells[static_cast<size_t>(i)];
      EnsureLayer(layer, variant);
    });
    sweep_wall_seconds_ = NowSeconds() - sweep_start;
    profiling_seconds_at_sweep_end_ = profiling_seconds();
  }
}

double StageProfiler::profiling_wall_seconds() const {
  if (sweep_wall_seconds_ == 0.0) {
    return profiling_seconds();
  }
  return sweep_wall_seconds_ + (profiling_seconds() - profiling_seconds_at_sweep_end_);
}

void StageProfiler::AddProfilingSeconds(double seconds) {
  double current = profiling_seconds_.load(std::memory_order_relaxed);
  while (!profiling_seconds_.compare_exchange_weak(current, current + seconds,
                                                   std::memory_order_relaxed)) {
  }
}

void StageProfiler::EnsureLayer(int layer, int variant_index) {
  const int canonical = dedup_layer_[static_cast<size_t>(layer)];
  LayerCell& cell =
      layer_cache_[static_cast<size_t>(canonical)][static_cast<size_t>(variant_index)];
  std::call_once(cell.once, [&] { SolveCell(canonical, variant_index, &cell); });
}

const IntraOpResult& StageProfiler::CellResult(int layer, int variant_index) const {
  const int canonical = dedup_layer_[static_cast<size_t>(layer)];
  return *layer_cache_[static_cast<size_t>(canonical)][static_cast<size_t>(variant_index)]
              .result;
}

void StageProfiler::SolveCell(int canonical, int variant_index, LayerCell* cell) {
  const double start = NowSeconds();
  const StageVariant& variant = variants_[static_cast<size_t>(variant_index)];
  const StageSubgraph& subgraph = layer_subgraphs_[static_cast<size_t>(canonical)];
  TraceSpan span("ilp_solve");
  const auto annotate = [&](bool cache_hit) {
    if (span.active()) {
      span.set_args(StrFormat("\"layer\":%d,\"variant\":\"%s\",\"cache_hit\":%s", canonical,
                              JsonEscape(variant.ToString()).c_str(),
                              cache_hit ? "true" : "false"));
    }
  };

  // The key is built from the BASE options: the memory mode enters as a key
  // field, not through the composed ModeFilter (which would be an
  // unhashable closure).
  IlpCacheKey key;
  const bool cacheable =
      options_.use_ilp_cache &&
      ComputeIlpCacheKey(cluster_, variant.physical, variant.logical,
                         static_cast<int>(variant.mode), options_.intra,
                         layer_hashes_[static_cast<size_t>(canonical)], &key);
  if (cacheable) {
    cell->result = IlpMemoCache::Global().Lookup(key);
  }
  if (cell->result != nullptr) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    annotate(/*cache_hit=*/true);
    AddProfilingSeconds(NowSeconds() - start);
    return;
  }
  if (cacheable) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  annotate(/*cache_hit=*/false);

  MeshPlacement placement;
  placement.shape = variant.physical;
  IntraOpOptions intra = options_.intra;
  intra.filter = ModeFilter(variant.mode, options_.intra.filter);
  // Root-level parallel branching inside the solver; results are identical
  // with or without the pool, so this does not perturb the cache key.
  intra.solver.pool = pool_;
  const DeviceMesh mesh = DeviceMesh::Create(cluster_, placement, variant.logical);
  auto solved = std::make_shared<const IntraOpResult>(SolveIntraOp(subgraph.graph, mesh, intra));
  num_ilp_solves_.fetch_add(1, std::memory_order_relaxed);
  static Metric* solves_metric = Metrics::Get("ilp/solves");
  solves_metric->Add(1);
  cell->result = cacheable ? IlpMemoCache::Global().Insert(key, std::move(solved))
                           : std::move(solved);
  AddProfilingSeconds(NowSeconds() - start);
}

StageProfile StageProfiler::Profile(int begin, int end, int variant_index) {
  ALPA_CHECK_GE(begin, 0);
  ALPA_CHECK_LE(end, num_layers_ - 1);
  ALPA_CHECK_LE(begin, end);

  if (options_.exact_intervals) {
    const auto key = std::make_tuple(begin, end, variant_index);
    {
      std::lock_guard<std::mutex> lock(exact_mu_);
      auto it = exact_cache_.find(key);
      if (it != exact_cache_.end()) {
        return it->second;
      }
    }
    // Solve outside the lock so distinct intervals profile concurrently.
    // Two threads may race to solve the same interval; the solver is
    // deterministic, so both compute the same profile and either insert
    // wins.
    const double start = NowSeconds();
    TraceSpan span("ilp_solve_exact");
    if (span.active()) {
      span.set_args(StrFormat("\"begin\":%d,\"end\":%d,\"variant\":%d", begin, end,
                              variant_index));
    }
    const StageSubgraph subgraph = ExtractStage(graph_, begin, end);
    const StageVariant& variant = variants_[static_cast<size_t>(variant_index)];
    MeshPlacement placement;
    placement.shape = variant.physical;
    IntraOpOptions intra = options_.intra;
    intra.filter = ModeFilter(variant.mode, options_.intra.filter);
    intra.solver.pool = pool_;
    const DeviceMesh mesh = DeviceMesh::Create(cluster_, placement, variant.logical);
    const IntraOpResult result = SolveIntraOp(subgraph.graph, mesh, intra);
    num_ilp_solves_.fetch_add(1, std::memory_order_relaxed);
    static Metric* solves_metric = Metrics::Get("ilp/solves");
    solves_metric->Add(1);
    StageProfile profile;
    if (result.feasible) {
      profile.t_intra = result.t_intra;
      profile.t_per_iteration = result.t_per_iteration;
      profile.weight_bytes = result.weight_bytes;
      profile.act_bytes_per_microbatch = result.act_bytes_per_microbatch;
      profile.work_bytes = result.work_bytes;
    }
    AddProfilingSeconds(NowSeconds() - start);
    {
      std::lock_guard<std::mutex> lock(exact_mu_);
      exact_cache_.emplace(key, profile);
    }
    return profile;
  }

  StageProfile profile;
  profile.t_intra = 0.0;
  for (int l = begin; l <= end; ++l) {
    EnsureLayer(l, variant_index);
    const IntraOpResult& result = CellResult(l, variant_index);
    if (!result.feasible) {
      return StageProfile{};
    }
    profile.t_intra += result.t_intra;
    profile.t_per_iteration += result.t_per_iteration;
    profile.weight_bytes += result.weight_bytes;
    profile.act_bytes_per_microbatch += result.act_bytes_per_microbatch;
    profile.work_bytes = std::max(profile.work_bytes, result.work_bytes);
  }
  return profile;
}

const IntraOpResult& StageProfiler::LayerResult(int layer, int variant_index) {
  EnsureLayer(layer, variant_index);
  return CellResult(layer, variant_index);
}

const StageSubgraph& StageProfiler::LayerSubgraph(int layer) const {
  return layer_subgraphs_[static_cast<size_t>(layer)];
}

}  // namespace alpa
