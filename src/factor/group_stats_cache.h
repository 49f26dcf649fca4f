// Per-version cache of group statistics: the third LruByteCache beside the
// aggregate cache (factor/agg_cache.h) and the fitted-model cache
// (factor/model_cache.h).
//
// Every (plan, measure) of a recommend reads the same statistics pass: the
// table's non-empty groups over the plan's key columns, with each group's
// moments and its row in the plan's feature matrix. y, the main-effect
// features and the complaint's siblings all derive from it. The pass is a
// function of the table and of (committed depths, candidate hierarchy,
// measure) alone, so the engine keys it by exactly those
// (Engine::StatsCacheKey) and a warm recommend reads no table rows.
//
// Unlike the other two caches, one of these belongs to each dataset
// VERSION and is never shared along a version chain: appended rows change
// a group's moments even where they add no new path, so no entry of a
// parent is valid for its child. A standalone Engine owns one as well.
//
// The cache is LruByteCache (common/lru_cache.h) itself: single-flight
// GetOrBuild, entries immutable and shared_ptr-held, byte-budgeted, with
// hits()/misses()/entries()/bytes()/evictions() behind /metricsz's
// reptile_group_stats_cache_* series.

#ifndef REPTILE_FACTOR_GROUP_STATS_CACHE_H_
#define REPTILE_FACTOR_GROUP_STATS_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "data/group_by.h"

namespace reptile {

/// One (plan, measure) statistics pass.
struct GroupStats {
  GroupByResult groups;       // the table's non-empty groups, first-seen order
  std::vector<int64_t> rows;  // each group's feature-matrix row
};

/// Accounted size of one cache entry: vector capacities plus the key.
inline size_t ApproxGroupStatsBytes(const std::string& key, const GroupStats& stats) {
  return stats.groups.ApproxBytes() + sizeof(stats.rows) +
         stats.rows.capacity() * sizeof(int64_t) + key.capacity() +
         64;  // map/list node overhead
}

/// A class rather than an alias so api/registry.h can forward-declare it.
class GroupStatsCache : public LruByteCache<std::string, GroupStats, &ApproxGroupStatsBytes> {};

}  // namespace reptile

#endif  // REPTILE_FACTOR_GROUP_STATS_CACHE_H_
