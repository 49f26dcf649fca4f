// Incremental dataset versions: the append builder (the tentpole of the
// version subsystem).
//
// POST /v1/datasets/{name}/rows lands here: a CSV batch with the parent's
// exact column set becomes a NEW immutable PreparedDataset — version K+1 of
// the chain — that structurally shares everything the delta did not touch:
//
//  * Columns and value-dict prefixes: the child table re-encodes the delta
//    through the parent's dictionaries (Table::WithRowsAppended), so existing
//    values keep their codes and new values take the next codes in
//    first-appearance order — exactly the assignment a from-scratch load of
//    the concatenated CSV would produce. Appending parent rows first keeps
//    float summation order identical too, which is what makes every
//    recommend/view/commit response over "name@vK" byte-identical to a cold
//    rebuild (the differential suite's contract).
//  * F-tree subtrees and (hierarchy, depth) aggregates: a cache entry at
//    (h, d) depends ONLY on the set of distinct root-to-leaf path prefixes
//    of length d, so an append leaves (h, d) CLEAN iff no delta row
//    introduces a new depth-d prefix. A delta row whose path matches the
//    parent's full-depth f-tree for m levels dirties exactly depths m+1..D
//    (its prefixes of length <= m already exist; deeper ones are new). The
//    per-hierarchy first dirty depth is the minimum over delta rows, and
//    the child's AggregateEpochs keeps clean depths at the parent's epoch —
//    same cache key, same entry, zero rebuild — while dirty depths move to
//    the child's version id: invalidation without flushing anything the
//    parent's pinned sessions still read.
//
// Fitted models always depend on every row's y-moments, so no model survives
// a real append; the win there is the version-qualified cache key
// (Engine::FitCacheKey's "|v:" component): the parent's fitted models stay
// resident and parent-pinned sessions keep hitting them warm.

#ifndef REPTILE_VERSION_APPEND_H_
#define REPTILE_VERSION_APPEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/status.h"

namespace reptile {

/// What an append built, and how much of the parent it reused.
struct AppendResult {
  DatasetHandle child;           // version parent->version() + 1
  size_t appended_rows = 0;      // delta rows
  size_t total_rows = 0;         // child table rows
  int64_t invalidated_entries = 0;  // (hierarchy, depth) keys dirtied
  int64_t shared_entries = 0;       // (hierarchy, depth) keys kept at the parent epoch
  /// Per hierarchy: the first dirtied depth (max_depth + 1 = fully clean).
  std::vector<int> dirty_from;
};

/// Builds version parent->version() + 1 from `csv_text` (header + data rows,
/// same separator conventions as dataset upload). The header must carry
/// EXACTLY the parent's columns (any order): a missing or unknown column is
/// InvalidArgument naming the column — appends cannot change the schema or
/// hierarchy shape. An append with zero data rows is InvalidArgument too (a
/// version must change the dataset). `origin` labels parse errors ("inline
/// csv", "csv body"). Does NOT touch any registry — the caller owns chain
/// membership (DatasetRegistry::AppendVersion).
Result<AppendResult> AppendRowsCsv(const DatasetHandle& parent, const std::string& csv_text,
                                   const std::string& origin = "inline csv");

}  // namespace reptile

#endif  // REPTILE_VERSION_APPEND_H_
