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
// The cache is LruByteCache (common/lru_cache.h) itself, keyed by the
// engine's key string, so it has that template's one contract:
//  * GetOrBuild(key, fit) runs `fit` at most once per resident key
//    process-wide: the first caller trains outside the lock, concurrent
//    callers for the key wait for its model and count a hit (they performed
//    no training). A fit that throws releases the key for a retry.
//  * Models are shared_ptr<const FittedModel>: immutable and safe to read
//    from any thread for as long as the caller holds the ptr — including
//    after a byte budget evicts the key, which simply refits on next demand.
//  * hits()/misses()/entries() back /metricsz's model-cache series; a miss
//    is one fit, so misses() is also the `reptile_model_cache_fits` count.

#ifndef REPTILE_FACTOR_MODEL_CACHE_H_
#define REPTILE_FACTOR_MODEL_CACHE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
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
inline size_t ApproxFittedModelBytes(const std::string& key, const FittedModel& model) {
  return sizeof(FittedModel) + model.fitted.capacity() * sizeof(double) + key.capacity() +
         64;  // map/list node overhead
}

/// A fitted-model cache key names the dataset version it was fitted on.
/// The cache is shared along a version chain, so version 1's keys carry no
/// version component (the spelling snapshots persist) and version K's end
/// in "|v:K". `version_token` is PreparedDataset::version_token(): "" for
/// version 1, "K" otherwise. Appends that component to `key`.
inline void AppendModelKeyVersion(std::string* key, const std::string& version_token) {
  if (!version_token.empty()) *key += "|v:" + version_token;
}

/// The length of `key` without its version component when the key belongs
/// to `version_token`'s version; std::nullopt when it belongs to another.
inline std::optional<size_t> VersionlessModelKeyLength(const std::string& key,
                                                      const std::string& version_token) {
  const size_t v = key.rfind("|v:");
  if (version_token.empty()) {
    if (v != std::string::npos) return std::nullopt;
    return key.size();
  }
  if (v == std::string::npos || key.compare(v + 3, std::string::npos, version_token) != 0) {
    return std::nullopt;
  }
  return v;
}

/// A class rather than an alias so api/registry.h can forward-declare it.
class SharedFittedModelCache
    : public LruByteCache<std::string, FittedModel, &ApproxFittedModelBytes> {};

}  // namespace reptile

#endif  // REPTILE_FACTOR_MODEL_CACHE_H_
