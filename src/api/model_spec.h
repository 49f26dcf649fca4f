// reptile::ModelSpec — the one description of HOW a recommendation's models
// are trained: model family, training backend, random-effect policy, EM
// iteration/tolerance caps, the extra primitive statistics frepair restores,
// and the fitted-model-cache opt-out, in a single value that
//
//   * configures a session (ExploreRequest::Model(ModelSpec)),
//   * overrides one call (BatchOptions::Model(ModelSpec)) — a per-call spec
//     REPLACES the session's model configuration wholesale; omitted fields
//     take the documented defaults below, not the session's values,
//   * travels the wire as the request JSON `options.model` object,
//   * is echoed back in every ExploreResponse, so clients see what ran, and
//   * canonicalizes into the shared fitted-model cache key
//     (factor/model_cache.h), so two sessions asking for the same model of
//     the same data share one fit.
//
// Validation is deferred to the plan stage (Session::RecommendAll /
// Engine::ValidateModelSpec) and reported as Status — constructing an
// invalid spec never aborts.

#ifndef REPTILE_API_MODEL_SPEC_H_
#define REPTILE_API_MODEL_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "agg/aggregates.h"
#include "api/status.h"

namespace reptile {

struct ModelSpec {
  /// Model family used for frepair (paper Section 3.2): the multi-level
  /// mixed-effects model, or the plain linear baseline.
  enum class Kind { kMultiLevel, kLinear };

  /// Training backend (Section 5.1.4): factorised EM when every feature is
  /// single-attribute (the paper's contribution), dense materialisation (the
  /// Matlab/LAPACK-style baseline), or pick automatically.
  enum class Backend { kAuto, kFactorized, kDense };

  /// Which columns get random effects: the Z design matrix of Section 3.3.4.
  /// The paper sets Z = X by default but notes Z "may be tuned to only keep
  /// attributes relevant within clusters": with Z = X and small clusters the
  /// per-cluster regression can interpolate a corrupted group (high
  /// leverage), defeating the repair. The default is therefore random
  /// intercepts (kIntercepts) — the standard multilevel default (lme /
  /// statsmodels) — and Z = X (kAll, every feature column not excluded via
  /// Session::ExcludeFromRandomEffects) is the option.
  enum class RandomPolicy { kIntercepts, kAll };

  Kind kind = Kind::kMultiLevel;
  Backend backend = Backend::kAuto;
  RandomPolicy random_effects = RandomPolicy::kIntercepts;
  // EM caps: at most `em_iterations` iterations (the paper's default 20),
  // stopping early once the max |Δbeta| of an iteration falls below
  // `em_tolerance` (0 = run every iteration, the bit-reproducible default).
  int em_iterations = 20;
  double em_tolerance = 0.0;
  // Consult/fill the process-shared fitted-model cache hanging off the
  // session's PreparedDataset. Opting out forces every call to retrain.
  bool fit_cache = true;
  // Extra statistics frepair restores besides the complaint's own primitives
  // (Appendix N), e.g. repairing total votes alongside the vote percentage.
  std::vector<AggFn> extra_repair_stats;

  // Fluent builders, chainable: ModelSpec().Dense().EmIterations(40).
  ModelSpec& With(Kind k);
  ModelSpec& With(Backend b);
  ModelSpec& MultiLevel() { return With(Kind::kMultiLevel); }
  ModelSpec& Linear() { return With(Kind::kLinear); }
  ModelSpec& Auto() { return With(Backend::kAuto); }
  ModelSpec& Factorized() { return With(Backend::kFactorized); }
  ModelSpec& Dense() { return With(Backend::kDense); }
  ModelSpec& With(RandomPolicy p);
  ModelSpec& InterceptRandomEffects() { return With(RandomPolicy::kIntercepts); }
  ModelSpec& AllRandomEffects() { return With(RandomPolicy::kAll); }
  ModelSpec& EmIterations(int iters);
  ModelSpec& EmTolerance(double tolerance);
  ModelSpec& FitCache(bool use);
  ModelSpec& RepairAlso(AggFn statistic);

  /// Range/finiteness checks as Status (never aborts): em_iterations must be
  /// positive, em_tolerance finite and non-negative.
  Status Validate() const;

  /// Canonical fragment of the shared fitted-model cache key: every field
  /// that changes a single primitive's fit (kind, backend, random-effect
  /// policy, EM caps). extra_repair_stats only widens WHICH primitives are
  /// fitted — each primitive's model is identical either way — and fit_cache
  /// only gates cache use, so neither partitions the key. The engine always
  /// keys on the canonicalized (EffectiveModelSpec) spec.
  std::string CacheKey() const;

  bool operator==(const ModelSpec&) const = default;

  static const char* KindName(Kind kind);
  static const char* BackendName(Backend backend);
  static const char* RandomPolicyName(RandomPolicy policy);
  /// Inverse of the Name functions ("multilevel"/"linear",
  /// "auto"/"factorized"/"dense", "intercepts"/"all"); nullopt for unknown
  /// names.
  static std::optional<Kind> ParseKind(const std::string& name);
  static std::optional<Backend> ParseBackend(const std::string& name);
  static std::optional<RandomPolicy> ParseRandomPolicy(const std::string& name);
};

}  // namespace reptile

#endif  // REPTILE_API_MODEL_SPEC_H_
