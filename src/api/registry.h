// The dataset half of the dataset/session split: shared, immutable, built
// once.
//
// Reptile's interactive loop (paper Section 2.1) is per-analyst, but the
// data every analyst explores is the same: N sessions over one hierarchical
// dataset should pay 1x — not Nx — for the table, the hierarchy metadata,
// and the (hierarchy, depth)-keyed f-tree / decomposed-aggregate entries.
//
//   PreparedDataset  — an immutable Dataset plus its process-shared
//                      aggregate cache (factor/agg_cache.h). Built once;
//                      every Session opened over it shares both.
//   DatasetHandle    — std::shared_ptr<const PreparedDataset>. Sessions and
//                      callers hold handles, so a dataset stays alive while
//                      anyone uses it even after the registry drops it.
//   DatasetRegistry  — a thread-safe, name-keyed table of handles: the
//                      server's POST /v1/datasets target.
//
// Per-session state stays in Session (api/session.h): committed drill
// depths, registered auxiliaries, random-effect exclusions. Committing a
// drill-down copies nothing — it bumps the session's depth vector while the
// aggregates stay shared ("copy-on-drill").
//
// Incremental versions (version/append.h): appending rows produces a NEW
// immutable PreparedDataset — version K+1, parent-linked by construction —
// that shares the parent's aggregate and model cache objects and carries an
// AggregateEpochs table marking which (hierarchy, depth) subtrees the delta
// dirtied. Its group-statistics cache is its own: appended rows change
// group moments even under clean subtrees. The registry keys each name to a
// VERSION CHAIN: "name" resolves to the head, "name@vK" pins a specific
// live version, and AppendVersion() retires unpinned non-head ancestors
// (their handles' only reference is the chain itself). A retired version
// takes its group statistics and its fitted models with it, so the byte
// budget pays only for versions someone can still read; aggregate entries
// stay, because clean descendants share them.

#ifndef REPTILE_API_REGISTRY_H_
#define REPTILE_API_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/status.h"
#include "data/dataset.h"

namespace reptile {

class SharedAggregateCache;    // factor/agg_cache.h (internal)
class SharedFittedModelCache;  // factor/model_cache.h (internal)
class GroupStatsCache;         // factor/group_stats_cache.h (internal)
struct AggregateEpochs;        // factor/agg_cache.h (internal)

class PreparedDataset;
using DatasetHandle = std::shared_ptr<const PreparedDataset>;

/// An immutable dataset prepared for sharing: the base relation, hierarchy
/// metadata, and the cross-session aggregate cache. Thread-safe: everything
/// reachable from a const PreparedDataset is either immutable or internally
/// synchronized (the cache).
class PreparedDataset {
 public:
  /// Validates and wraps `dataset` as version 1 of a fresh chain (own caches,
  /// all-1 epochs). InvalidArgument when the dataset has no hierarchy to
  /// drill into or no rows.
  static Result<DatasetHandle> Prepare(Dataset dataset);

  /// Wraps `dataset` as version `version` == parent->version() + 1 of the
  /// parent's chain. The child SHARES the parent's aggregate and model cache
  /// objects (and starts an empty group-statistics cache); `epochs` says, per (hierarchy, depth), which entries it reads
  /// at the parent's epoch (structurally shared) versus its own version id
  /// (dirtied by the append — see AggregateEpochs). Same validation as
  /// Prepare, plus the version-succession check.
  static Result<DatasetHandle> PrepareVersion(const DatasetHandle& parent, Dataset dataset,
                                              int64_t version, AggregateEpochs epochs);

  /// Erases from the chain-shared model cache the fitted models only this
  /// version can read (its keys' version component, see
  /// AppendModelKeyVersion), so a version the registry retires stops paying
  /// for them.
  ~PreparedDataset();

  PreparedDataset(const PreparedDataset&) = delete;
  PreparedDataset& operator=(const PreparedDataset&) = delete;

  const Dataset& data() const { return dataset_; }
  const Table& table() const { return dataset_.table(); }

  /// The shared aggregate cache (internally synchronized; mutable through a
  /// const handle by design — caching is not a logical mutation).
  SharedAggregateCache& cache() const { return *cache_; }

  /// The shared fitted-model cache (factor/model_cache.h): every session
  /// opened over this dataset consults it before training, so warm sessions
  /// perform zero fits. Internally synchronized, like cache().
  SharedFittedModelCache& model_cache() const { return *model_cache_; }

  /// This version's own group-statistics cache (factor/group_stats_cache.h):
  /// one statistics pass per (committed depths, candidate hierarchy,
  /// measure), so warm recommends read no table rows. Never shared with
  /// other versions. Internally synchronized, like cache().
  GroupStatsCache& group_stats_cache() const { return *group_stats_cache_; }

  /// This dataset's version within its chain (1 for a fresh Prepare).
  int64_t version() const { return version_; }

  /// Per-(hierarchy, depth) dirty epochs for the shared aggregate cache.
  const AggregateEpochs& epochs() const;

  /// Fitted-model cache-key component: "" for version 1 (so v1 keys keep the
  /// historical spelling snapshots persist), the decimal version otherwise.
  std::string version_token() const;

  /// Cache observability for tests, benchmarks and capacity monitoring.
  int64_t cache_entries() const;
  int64_t cache_hits() const;
  int64_t cache_misses() const;
  int64_t cache_bytes() const;
  int64_t cache_evictions() const;
  int64_t model_cache_entries() const;
  int64_t model_cache_hits() const;
  int64_t model_cache_misses() const;
  int64_t model_cache_bytes() const;
  int64_t model_cache_evictions() const;
  /// Model fits actually performed through the cache — across every session
  /// over this dataset; the single-flight contract makes this "one per
  /// distinct key", however many sessions raced.
  int64_t model_cache_fits() const;
  int64_t group_stats_cache_entries() const;
  int64_t group_stats_cache_hits() const;
  int64_t group_stats_cache_misses() const;
  int64_t group_stats_cache_bytes() const;
  int64_t group_stats_cache_evictions() const;

  /// Splits `total_bytes` evenly between the aggregate, model and
  /// group-statistics caches (0 = unlimited for all three). Const for the
  /// same reason cache() is: a budget changes retention, not the logical
  /// dataset.
  void SetCacheBudgetBytes(size_t total_bytes) const;

 private:
  explicit PreparedDataset(Dataset dataset);
  PreparedDataset(Dataset dataset, const PreparedDataset& parent, int64_t version,
                  AggregateEpochs epochs);

  Dataset dataset_;
  std::shared_ptr<SharedAggregateCache> cache_;
  std::shared_ptr<SharedFittedModelCache> model_cache_;
  std::unique_ptr<GroupStatsCache> group_stats_cache_;
  int64_t version_ = 1;
  std::shared_ptr<const AggregateEpochs> epochs_;
};

/// One registered name's version state, for /healthz.
struct DatasetVersionSummary {
  std::string name;
  int64_t head = 1;
  std::vector<int64_t> live;  // ascending version ids still resolvable
};

/// A thread-safe, name-keyed table of prepared dataset version chains.
/// Handles returned by Add/Find are independent of the registry's lifetime:
/// Remove() only drops the name — sessions holding a handle keep their
/// version alive.
class DatasetRegistry {
 public:
  DatasetRegistry() = default;

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Prepares `dataset` and registers it under `name`. InvalidArgument on an
  /// empty or duplicate name or an undrillable/empty dataset.
  Result<DatasetHandle> Add(std::string name, Dataset dataset);

  /// Registers an already prepared dataset under `name` (for sharing one
  /// PreparedDataset across registries or with direct sessions).
  Result<DatasetHandle> AddPrepared(std::string name, DatasetHandle dataset);

  /// Resolves a name to a handle. A plain name resolves to its chain's HEAD
  /// version; "name@vK" pins live version K exactly (a dataset literally
  /// registered under a name containing "@v" still wins — exact match is
  /// tried first). NotFound for unknown names and for versions already
  /// retired by GC.
  Result<DatasetHandle> Find(const std::string& name) const;

  /// Registers `child` (built by PreparedDataset::PrepareVersion /
  /// version/append.h) as the new head of `name`'s chain, then retires every
  /// non-head ancestor no session pins any more. `invalidated_entries` — the
  /// count of (hierarchy, depth) cache entries the append dirtied — feeds the
  /// cache_invalidations() counter. Returns the number of versions retired.
  /// NotFound for an unknown name; FailedPrecondition when `child` does not
  /// succeed the current head (a concurrent append won the race).
  Result<int64_t> AppendVersion(const std::string& name, DatasetHandle child,
                                int64_t invalidated_entries);

  /// Re-runs the unpinned-ancestor sweep for `name` and returns how many
  /// versions it retired (0 when nothing is collectible; idempotent). Needed
  /// because AppendVersion's inline GC runs while the caller still holds
  /// handles it is about to drop — e.g. the serving tier swaps its default
  /// session off the parent only AFTER publishing the child, so the parent
  /// only becomes collectible once that swap completes. NotFound for an
  /// unknown name.
  Result<int64_t> CollectGarbage(const std::string& name);

  /// Drops the name — the WHOLE version chain — from the registry; live
  /// handles are unaffected. NotFound when the name is not registered.
  Status Remove(const std::string& name);

  bool Contains(const std::string& name) const;

  /// Registered names (base names, not "@vK" forms), sorted.
  std::vector<std::string> names() const;

  /// Per-name version-chain state, sorted by name — /healthz's "versions".
  std::vector<DatasetVersionSummary> VersionSummaries() const;

  /// Monotonic counters: versions retired by AppendVersion's GC, and cache
  /// entries invalidated (dirtied) across every append.
  int64_t versions_gc() const { return versions_gc_.load(std::memory_order_relaxed); }
  int64_t cache_invalidations() const {
    return cache_invalidations_.load(std::memory_order_relaxed);
  }

  int64_t size() const;

 private:
  /// One name's live versions. Invariant: non-empty; head is the largest key.
  struct Chain {
    std::map<int64_t, DatasetHandle> versions;
    int64_t head = 1;
  };

  /// Retires unpinned non-head versions of `chain` (caller holds mu_
  /// exclusively) and bumps versions_gc_. Returns the count retired.
  int64_t GcChainLocked(Chain& chain);

  mutable std::shared_mutex mu_;
  std::map<std::string, Chain> chains_;
  std::atomic<int64_t> versions_gc_{0};
  std::atomic<int64_t> cache_invalidations_{0};
};

}  // namespace reptile

#endif  // REPTILE_API_REGISTRY_H_
