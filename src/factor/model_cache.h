// Process-shared fitted-model cache: the training half of what
// SharedAggregateCache (factor/agg_cache.h) does for aggregates.
//
// Reptile's interactive loop is dominated by multi-level model training
// (paper Section 5.1), yet a fitted model is a pure function of immutable
// inputs: the base table, the hierarchy extension being evaluated, every
// hierarchy's committed depth (they shape the feature matrix), the measure
// and primitive statistic, the session's feature registrations, and the
// canonicalized ModelSpec. One SharedFittedModelCache therefore hangs off
// each PreparedDataset (api/registry.h) beside the aggregate cache; the
// engine keys it by exactly those inputs (Engine::RecommendBatch), so a warm
// session — same dataset, same committed depths, same spec — performs ZERO
// fits, and N sessions racing on one key perform exactly one between them.
//
// Storage is split in two under one lock:
//  * completed_ — an LruByteCache of finished models. Under a byte budget the
//    least-recently-used models are evicted; eviction only drops the cache's
//    reference, so models held by in-flight requests stay valid. An evicted
//    key simply refits on next demand.
//  * inflight_  — the single-flight latch: one shared_future per key whose
//    fit is currently running. Publication (insert into completed_, erase
//    from inflight_) is atomic with respect to lookups, which check both
//    maps under the same lock — so no two callers can ever both miss.
//
// Concurrency contract (single-flight, stricter than the aggregate cache):
//  * GetOrFit(key, fit) runs `fit` at most once per RESIDENT key
//    process-wide. The first caller fits outside the cache lock; concurrent
//    callers for the same key block on a shared_future until the winner
//    publishes. The aggregate cache lets a losing racer build a duplicate
//    and drop it — acceptable for cheap tree builds, wasteful for EM
//    training, hence the latch here.
//  * Returned models are shared_ptr<const ...>: immutable and safe to read
//    from any thread for as long as the caller holds the ptr — including
//    after the cache evicts the key.
//  * If `fit` throws, the key is erased so a later call can retry; waiters
//    blocked on the in-flight entry observe the exception.
//  * hits()/misses()/fits()/entries() are monotonic counters for /metricsz,
//    tests and benchmarks. A call that waited on another caller's in-flight
//    fit counts as a hit: it performed no training.

#ifndef REPTILE_FACTOR_MODEL_CACHE_H_
#define REPTILE_FACTOR_MODEL_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/lru_cache.h"

namespace reptile {

/// One trained primitive model: fitted values per feature-matrix row, plus
/// what the fit cost when it actually ran (a cache hit charges 0 — the work
/// already happened in some earlier call).
struct FittedModel {
  std::vector<double> fitted;
  double fit_seconds = 0.0;
  // EM iterations the training loop actually executed (0 for linear fits,
  // which have no EM loop). Stored with the model so a cache hit echoes the
  // same realized count as the call that trained it — warm and cold bodies
  // stay byte-identical.
  int em_iterations_run = 0;
};

using FittedModelPtr = std::shared_ptr<const FittedModel>;

/// Accounted heap size of one cache entry (model plus its key string), for
/// the byte budget.
size_t ApproxFittedModelBytes(const std::string& key, const FittedModel& model);

class SharedFittedModelCache {
 public:
  SharedFittedModelCache() = default;

  SharedFittedModelCache(const SharedFittedModelCache&) = delete;
  SharedFittedModelCache& operator=(const SharedFittedModelCache&) = delete;

  /// Returns the cached model for `key`, fitting it via `fit` when absent.
  /// Single-flight: exactly one caller per resident key ever runs `fit`; the
  /// rest wait for (or find) its result. The bool is true iff THIS call
  /// performed the fit — callers use it to attribute train_seconds and fit
  /// counters.
  std::pair<FittedModelPtr, bool> GetOrFit(const std::string& key,
                                           const std::function<FittedModel()>& fit);

  /// Pure lookup for introspection/tests: the completed model, or nullptr
  /// when the key is absent or still fitting. Touches neither the counters
  /// nor LRU recency.
  FittedModelPtr Find(const std::string& key) const;

  /// Inserts an already-fitted model (snapshot warm start). Insert-once: a
  /// resident or in-flight key is left alone. Counts as neither hit, miss
  /// nor fit — the training happened in some earlier process.
  void Put(const std::string& key, FittedModelPtr model);

  /// Keys currently cached (in-flight included), sorted.
  std::vector<std::string> Keys() const;

  /// Completed (key, model) pairs for snapshot writing, sorted by key.
  /// In-flight fits are not included.
  std::vector<std::pair<std::string, FittedModelPtr>> CompletedEntries() const;

  int64_t entries() const;

  /// Byte budget over the completed store (0 = unlimited; see
  /// common/lru_cache.h). In-flight fits are not byte-accounted — they
  /// become accountable when they complete.
  void set_budget_bytes(size_t budget) { completed_.set_budget_bytes(budget); }
  size_t budget_bytes() const { return completed_.budget_bytes(); }
  size_t bytes() const { return completed_.bytes(); }
  int64_t evictions() const { return completed_.evictions(); }

  /// Monotonic GetOrFit outcomes: calls served a model without training
  /// (completed entry or another caller's successful in-flight fit — a
  /// waiter that observes a failed fit's exception counts nowhere) / calls
  /// that found nothing / fit executions started (misses() == fits()).
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t fits() const { return fits_.load(std::memory_order_relaxed); }

 private:
  // mu_ makes (completed_, inflight_) a single atomic unit: lookups read
  // both under a shared lock, publication mutates both under an exclusive
  // lock. completed_ has its own internal mutex (always acquired after mu_),
  // which lets counter accessors like bytes() skip mu_ entirely.
  mutable std::shared_mutex mu_;
  mutable LruByteCache<std::string, FittedModel> completed_;
  // shared_future: each waiter copies the future out under the lock and
  // blocks on its own copy, which the standard blesses for cross-thread use.
  std::map<std::string, std::shared_future<FittedModelPtr>> inflight_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> fits_{0};
};

}  // namespace reptile

#endif  // REPTILE_FACTOR_MODEL_CACHE_H_
