// Drill-down state management (paper Section 4.4, Appendix J, Algorithm 11).
//
// Each Reptile invocation evaluates every hierarchy as a drill-down
// candidate, which needs that hierarchy's f-tree and local decomposed
// aggregates one level deeper, plus every other hierarchy's aggregates at
// their committed depth. Because global aggregates are local aggregates times
// cross-hierarchy leaf products (scalars), the non-drilled hierarchies update
// in O(1); the only real work is (re)building per-hierarchy trees and local
// aggregate tables. This class implements the paper's three policies:
//
//   kStatic       — recompute everything touched, every invocation.
//   kDynamic      — keep committed-depth aggregates across invocations
//                   (hierarchy independence); recompute candidate depths.
//   kCacheDynamic — additionally cache candidate-depth aggregates from
//                   previous invocations (Section 4.4: hierarchies evaluated
//                   but not picked are free next time).
//
// DrillDownState is only the CHEAP per-user half of the drill-down
// machinery: the committed-depth vector, the eviction policy, and build
// accounting. The EXPENSIVE half — the (hierarchy, depth) aggregate entries
// themselves — always lives in a SharedAggregateCache (factor/agg_cache.h),
// and every entry is read through its single-flight GetOrBuild:
//  * kCacheDynamic with a borrowed cache: the process-shared one hanging off
//    a PreparedDataset, so N sessions over one dataset build each entry once
//    between them. Drilling copies nothing ("copy-on-drill"): Commit() bumps
//    this session's depth integer while the aggregates stay shared.
//  * otherwise: a cache this state owns. BeginInvocation erases its entries
//    as the policy requires — all of them under kStatic, the non-committed
//    depths under kDynamic, none under kCacheDynamic.
//
// Pinning: every entry an invocation touches is held in `pinned_` as a
// shared_ptr<const HierarchyAggregates>. The cache may evict any entry at
// any time under a byte budget, but a pinned entry stays alive until the
// next BeginInvocation, so the references Peek() returns (and the engine's
// raw per-plan pointers derived from them) stay valid for exactly one
// batch. BeginInvocation drops the pins, letting evicted entries free.

#ifndef REPTILE_FACTOR_DRILLDOWN_H_
#define REPTILE_FACTOR_DRILLDOWN_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "factor/agg_cache.h"

namespace reptile {

class ThreadPool;  // parallel/thread_pool.h

/// Per-session drill-down state: committed depths plus the aggregate cache
/// it reads through (a borrowed shared one or its own).
class DrillDownState {
 public:
  enum class Mode { kStatic, kDynamic, kCacheDynamic };

  /// `shared_cache` may be nullptr (the state owns its cache). A non-null
  /// shared cache is borrowed — the caller (Engine via its DatasetHandle)
  /// must keep it alive — and is only read under kCacheDynamic; the
  /// evicting policies always run on a cache of their own. `epochs` (also
  /// borrowed, may be nullptr = every epoch 1) selects which dataset
  /// version's entries this state reads in the shared cache: clean
  /// (hierarchy, depth) keys coincide with the parent version's, dirty ones
  /// carry this version's id (see AggregateEpochs).
  DrillDownState(const Dataset* dataset, Mode mode,
                 SharedAggregateCache* shared_cache = nullptr,
                 const AggregateEpochs* epochs = nullptr);

  /// The one (hierarchy, depth) build: the f-tree over the hierarchy's first
  /// `depth` attributes and its local aggregates. Deterministic in the
  /// table, so every cache that builds a key holds identical bits.
  static HierarchyAggregates Build(const Dataset& dataset, int hierarchy, int depth);

  /// Committed drill depth of a hierarchy (0 = not drilled yet).
  int depth(int hierarchy) const { return committed_depth_[hierarchy]; }

  /// Maximum depth (number of attributes) of a hierarchy.
  int max_depth(int hierarchy) const;

  /// True when the hierarchy has at least one undrilled attribute left.
  bool CanDrill(int hierarchy) const;

  /// Marks the start of a Reptile invocation: releases the previous
  /// invocation's pins and applies the eviction policy to an owned cache.
  void BeginInvocation();

  /// Pins every (hierarchy, depth) entry of `keys` for the invocation. A
  /// resident key is found and pinned on the calling thread; only absent
  /// keys fan out across `pool` (nullptr = inline), each through the
  /// cache's single-flight GetOrBuild — so a warm batch never queues its
  /// lookups behind other work on the pool, and a key another session is
  /// building meanwhile is waited for, not built twice. All pinning happens
  /// on the calling thread, so after Prefetch returns, Peek() for these keys
  /// is a pure read and safe to call from many threads at once. Returns the
  /// build seconds per key this call built (every other key is absent).
  std::map<std::pair<int, int>, double> Prefetch(
      const std::vector<std::pair<int, int>>& keys, ThreadPool* pool);

  /// Pure read of a pinned entry (aborts when absent — i.e. when Prefetch
  /// has not pinned the key since the last BeginInvocation). Const,
  /// lock-free, never builds and never touches the cache, so it is safe to
  /// call concurrently from many worker threads.
  const HierarchyAggregates& Peek(int hierarchy, int depth) const;

  /// Commits a drill-down on `hierarchy` (advances its depth by one).
  void Commit(int hierarchy);

  /// Seconds spent building aggregates for `hierarchy` since the last
  /// BeginInvocation — the per-area quantity of Figure 9.
  double InvocationBuildSeconds(int hierarchy) const;

  /// Number of aggregate builds THIS session performed since construction or
  /// ResetStats. A session warmed by the shared cache performs zero builds —
  /// the cross-session sharing assertion of the registry tests.
  int64_t total_builds() const { return total_builds_; }
  void ResetStats();

 private:
  /// The cache key of (hierarchy, depth): its dirty epoch, then the pair.
  AggregateKey CacheKey(std::pair<int, int> key) const {
    return {epochs_ == nullptr ? 1 : epochs_->at(key.first, key.second), key.first,
            key.second};
  }

  const Dataset* dataset_;
  Mode mode_;
  const AggregateEpochs* epochs_;  // borrowed; may be nullptr (all 1s)
  // Set unless the state reads a borrowed shared cache (see file comment).
  std::unique_ptr<SharedAggregateCache> owned_cache_;
  SharedAggregateCache* cache_;  // the borrowed shared cache or owned_cache_
  std::vector<int> committed_depth_;
  // The per-invocation pin set keeping entries alive across LRU eviction.
  std::map<std::pair<int, int>, HierarchyAggregatesPtr> pinned_;
  std::vector<double> invocation_build_seconds_;
  int64_t total_builds_ = 0;
};

}  // namespace reptile

#endif  // REPTILE_FACTOR_DRILLDOWN_H_
