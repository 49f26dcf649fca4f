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
// The cache is LruByteCache (common/lru_cache.h) itself, so it has that
// template's one contract:
//  * GetOrBuild is single-flight: N sessions drilling to one absent
//    (hierarchy, depth) at once build it exactly once between them — the
//    first builds outside the lock, the rest wait and count a hit.
//  * Entries are immutable once published and handed out as
//    shared_ptr<const HierarchyAggregates>. Under a byte budget cold entries
//    are EVICTED, so callers must hold the shared_ptr across every window
//    they dereference the entry — DrillDownState pins entries per invocation
//    so the engine's raw per-plan pointers stay valid for exactly one batch.
//  * hits()/misses()/evictions() are monotonic counters (a miss is one
//    build); entries()/bytes() are gauges — all summed over datasets on
//    /metricsz.

#ifndef REPTILE_FACTOR_AGG_CACHE_H_
#define REPTILE_FACTOR_AGG_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
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

/// A hierarchy's f-tree and local aggregates at one depth.
struct HierarchyAggregates {
  std::unique_ptr<FTree> tree;
  std::unique_ptr<LocalAggregates> locals;
};

using HierarchyAggregatesPtr = std::shared_ptr<const HierarchyAggregates>;

/// Cache key: (dirty epoch, hierarchy, depth). The epoch component is the
/// dataset version that last dirtied the (hierarchy, depth) — see
/// AggregateEpochs. Version chains share one cache object, so clean entries
/// collide (shared) across versions and dirty ones diverge (invalidated)
/// with no explicit flush.
using AggregateKey = std::tuple<int64_t, int, int>;

/// Accounted size of one cache entry (tree + ancestor tables + overhead).
size_t ApproxHierarchyAggregatesBytes(const AggregateKey& key,
                                      const HierarchyAggregates& aggregates);

/// A class rather than an alias so api/registry.h can forward-declare it.
class SharedAggregateCache
    : public LruByteCache<AggregateKey, HierarchyAggregates, &ApproxHierarchyAggregatesBytes> {
};

}  // namespace reptile

#endif  // REPTILE_FACTOR_AGG_CACHE_H_
