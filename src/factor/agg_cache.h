// Process-shared drill-down aggregate cache (the cross-session half of the
// dataset/session split).
//
// The expensive immutable state of a Reptile deployment — f-trees and local
// decomposed aggregates per (hierarchy, depth) — depends only on the base
// table and the hierarchy schema, never on who is asking: hierarchy
// independence (paper Section 4.4) makes a hierarchy's aggregates at depth d
// identical for every analyst, whatever the *other* hierarchies' committed
// depths are. One SharedAggregateCache therefore hangs off each
// PreparedDataset (api/registry.h) and is read by every session opened over
// it; a session drilling somewhere new pays the build once and all later
// sessions — including sessions at entirely different drill states — hit.
//
// Keying by (hierarchy, depth) rather than by the committed-depth vector is
// deliberate: it is strictly finer-grained sharing. Two sessions whose drill
// states differ still share every per-hierarchy entry they have in common.
//
// Concurrency and reclamation contract (changed from the append-only era):
//  * Entries are immutable once inserted and handed out as
//    shared_ptr<const HierarchyAggregates>. The cache is LRU-by-bytes
//    (common/lru_cache.h): under a budget, cold entries are EVICTED, so the
//    old "references stay valid for the cache's lifetime" promise is gone.
//    Callers must hold the shared_ptr across every window they dereference
//    the entry — DrillDownState pins entries per invocation so the engine's
//    raw per-plan pointers stay valid for exactly one batch.
//  * Insert() is insert-once: when two sessions race to build the same key,
//    the first insert wins and the loser adopts the resident
//    (bit-identical — builds are deterministic functions of the immutable
//    table) entry. Builds happen OUTSIDE the cache so a slow build never
//    blocks readers.
//  * hits()/misses()/evictions() are monotonic counters; entries()/bytes()
//    are gauges — all summed over datasets on /metricsz.

#ifndef REPTILE_FACTOR_AGG_CACHE_H_
#define REPTILE_FACTOR_AGG_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/lru_cache.h"
#include "factor/decomposed.h"
#include "factor/ftree.h"

namespace reptile {

/// Per-dataset-version dirty-epoch table for the shared aggregate cache:
/// dirtied[h][d-1] is the dataset version that last changed hierarchy h's
/// distinct depth-d path prefixes. An incremental append keeps a clean
/// (h, d)'s epoch equal to the parent version's, so parent and child address
/// the very same cache entry (structural sharing through key identity); a
/// dirtied (h, d) gets the child version as its epoch, which invalidates the
/// stale entry for the child without flushing anything the parent's pinned
/// sessions still read. A freshly prepared (v1) dataset is all-1s.
struct AggregateEpochs {
  std::vector<std::vector<int64_t>> dirtied;  // [hierarchy][depth-1]

  int64_t at(int hierarchy, int depth) const {
    return dirtied[static_cast<size_t>(hierarchy)][static_cast<size_t>(depth - 1)];
  }
};

/// Uniform epoch table (`epoch` at every (h, d)): `max_depths[h]` is
/// hierarchy h's attribute count.
AggregateEpochs MakeUniformEpochs(const std::vector<int>& max_depths, int64_t epoch);

/// A hierarchy's f-tree and local aggregates at one depth (moved here from
/// factor/drilldown.h so both the shared cache and the per-session state can
/// speak it).
struct HierarchyAggregates {
  std::unique_ptr<FTree> tree;
  std::unique_ptr<LocalAggregates> locals;
};

using HierarchyAggregatesPtr = std::shared_ptr<const HierarchyAggregates>;

/// Accounted size of one cache entry (tree + ancestor tables + overhead).
size_t ApproxHierarchyAggregatesBytes(const HierarchyAggregates& aggregates);

class SharedAggregateCache {
 public:
  /// Cache key: (dirty epoch, hierarchy, depth). The epoch component is the
  /// dataset version that last dirtied the (hierarchy, depth) — see
  /// AggregateEpochs. Version chains share one cache object, so clean
  /// entries collide (shared) across versions and dirty ones diverge
  /// (invalidated) with no explicit flush.
  using Key = std::tuple<int64_t, int, int>;

  SharedAggregateCache() = default;

  SharedAggregateCache(const SharedAggregateCache&) = delete;
  SharedAggregateCache& operator=(const SharedAggregateCache&) = delete;

  /// The resident entry (touched most-recently-used), or nullptr. The
  /// returned shared_ptr keeps the entry alive across eviction. Counts one
  /// hit or miss.
  HierarchyAggregatesPtr Find(int64_t epoch, int hierarchy, int depth) const;

  /// Insert-once: returns the resident entry — the one just built when this
  /// call inserted it, or the previously inserted (deterministically
  /// identical) entry when another session won the race. May evict
  /// least-recently-used entries when a byte budget is set.
  HierarchyAggregatesPtr Insert(int64_t epoch, int hierarchy, int depth,
                                HierarchyAggregates built);

  /// Epoch-1 conveniences: the whole cache when only one (v1) version ever
  /// exists — unversioned tests and tools.
  HierarchyAggregatesPtr Find(int hierarchy, int depth) const {
    return Find(1, hierarchy, depth);
  }
  HierarchyAggregatesPtr Insert(int hierarchy, int depth, HierarchyAggregates built) {
    return Insert(1, hierarchy, depth, std::move(built));
  }

  /// LRU byte budget; 0 (the default) = unlimited. Shrinking evicts
  /// immediately.
  void set_budget_bytes(size_t budget) { cache_.set_budget_bytes(budget); }
  size_t budget_bytes() const { return cache_.budget_bytes(); }

  /// Gauges and monotonic counters.
  int64_t entries() const { return cache_.entries(); }
  size_t bytes() const { return cache_.bytes(); }
  int64_t hits() const { return cache_.hits(); }
  int64_t misses() const { return cache_.misses(); }
  int64_t evictions() const { return cache_.evictions(); }

  /// Keys currently cached, sorted — for introspection, tests, snapshots.
  std::vector<Key> Keys() const { return cache_.Keys(); }

  /// Resident entries, sorted by key — the snapshot-save walk.
  std::vector<std::pair<Key, HierarchyAggregatesPtr>> Items() const {
    return cache_.Items();
  }

 private:
  // mutable: Find() is logically const but touches LRU recency.
  mutable LruByteCache<Key, HierarchyAggregates> cache_;
};

}  // namespace reptile

#endif  // REPTILE_FACTOR_AGG_CACHE_H_
