// Process-wide memoization of intra-op ILP solves.
//
// The stage profiler already dedups structurally identical layers *within*
// one profiler instance (all transformer blocks of one model share a
// solve). This cache extends the same idea across instances: structurally
// identical layers appearing in different model configs, benchmark sweep
// points, or repeated compilations reuse each other's solves. It is the
// compile-time analogue of the paper's observation (7.4) that
// profiling-based plan generation must amortize repeated substructure.
//
// A cache key captures everything a solve's outcome depends on: the layer
// graph's structural hash, the alpha-beta constants of the cluster, the
// physical/logical mesh shapes, the memory mode, and every IntraOpOptions
// field that steers the solver. Solves carrying caller-provided closures
// (plan-space filters, forced choices, external seeds) cannot be hashed and
// are simply not cached.
//
// Thread safety: all methods are safe to call concurrently; the parallel
// profiling sweep hits this cache from every worker.
#ifndef SRC_INTRA_ILP_CACHE_H_
#define SRC_INTRA_ILP_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/intra/intra_pass.h"
#include "src/mesh/cluster_spec.h"
#include "src/mesh/device_mesh.h"

namespace alpa {

struct IlpCacheKey {
  uint64_t structural_hash = 0;  // StructuralHash of the (layer) graph.
  uint64_t config_hash = 0;      // Cluster + mesh + options fingerprint.
  bool operator==(const IlpCacheKey&) const = default;
};

struct IlpCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
};

class IlpMemoCache {
 public:
  // The process-wide instance used by every profiler.
  static IlpMemoCache& Global();

  // Entries are immutable and shared: a hit hands out the resident result
  // by pointer, never a copy. Returns null (and counts a miss) otherwise.
  std::shared_ptr<const IntraOpResult> Lookup(const IlpCacheKey& key);
  // Inserts a solve unless the key is already resident, and returns the
  // resident entry either way: first write wins, and a writer that lost the
  // race adopts the winner (all writers hold identical results for a key).
  std::shared_ptr<const IntraOpResult> Insert(const IlpCacheKey& key,
                                              std::shared_ptr<const IntraOpResult> result);

  IlpCacheStats stats() const;
  size_t size() const;
  // Drops all entries and zeroes the counters (tests, fair benchmarks).
  // Results already handed out stay valid: holders share their ownership.
  void Clear();

 private:
  struct KeyHash {
    size_t operator()(const IlpCacheKey& key) const {
      return static_cast<size_t>(key.structural_hash ^ (key.config_hash * 0x9e3779b97f4a7c15ull));
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<IlpCacheKey, std::shared_ptr<const IntraOpResult>, KeyHash> entries_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

// Builds the cache key for solving `structural_hash`'s graph on the given
// submesh/logical shape under `memory_mode` (the stage profiler's enum,
// passed as int to keep this header independent of it). Returns false when
// the solve is ineligible for caching: a custom AlgorithmFilter, forced
// choices, or pre-seeded solver state cannot be folded into a hash.
bool ComputeIlpCacheKey(const ClusterSpec& cluster, const SubmeshShape& physical,
                        std::array<int, 2> logical, int memory_mode,
                        const IntraOpOptions& options, uint64_t structural_hash,
                        IlpCacheKey* key);

}  // namespace alpa

#endif  // SRC_INTRA_ILP_CACHE_H_
