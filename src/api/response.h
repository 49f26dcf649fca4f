// Serializable response model of the public API.
//
// Responses are plain data — strings, doubles, name-keyed maps — fully
// decoupled from engine internals (no Moments, no AggFn, no column indices),
// so clients and a future server layer can consume them directly; every
// response serialises itself with ToJson().

#ifndef REPTILE_API_RESPONSE_H_
#define REPTILE_API_RESPONSE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace reptile {

/// One recommended drill-down group. Statistic maps are keyed by lowercase
/// statistic names ("count", "sum", "mean", "std"); `predicted` holds one
/// entry per primitive model the repair used.
struct GroupResponse {
  std::string description;                              // "year=1986, village=Zata"
  std::vector<std::pair<std::string, std::string>> key;  // (column, value) pairs
  std::map<std::string, double> observed;
  std::map<std::string, double> predicted;
  std::map<std::string, double> repaired;
  double repaired_complaint_value = 0.0;
  double score = 0.0;  // lower is better
};

/// Result of evaluating one candidate hierarchy.
struct HierarchyResponse {
  std::string hierarchy;  // hierarchy schema name ("geo")
  std::string attribute;  // the newly added (drilled) attribute ("village")
  std::vector<GroupResponse> groups;
  double best_score = 0.0;
  int64_t model_rows = 0;
  int64_t model_clusters = 0;
  double train_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Echo of the ModelSpec a call actually ran — the session's configuration
/// or the per-call override, with "auto" resolved to the backend the fit
/// stage picked when that is statically known. Serialized into every
/// ExploreResponse so wire clients can see (and assert) what trained their
/// models. Deterministic: identical for cold and cache-warm calls.
struct ModelResponse {
  std::string kind = "multilevel";   // "multilevel" | "linear"
  std::string backend = "factorized";  // "auto" | "factorized" | "dense"
  std::string random_effects = "intercepts";  // "intercepts" | "all"
  int em_iterations = 20;
  double em_tolerance = 0.0;
  // EM iterations the training loop actually executed — em_iterations when
  // it ran to the cap, fewer when em_tolerance stopped it early, the max
  // over the call's fits when they differ, 0 for linear models. The knob
  // users watch to tune em_tolerance. Identical for cold and cache-warm
  // calls: the realized count is stored with the cached model.
  int em_iterations_run = 0;
  bool fit_cache = true;
  std::vector<std::string> extra_repair_stats;  // lowercase statistic names
};

/// The full answer to one complaint: all candidate hierarchies plus the
/// arg-min recommendation.
struct ExploreResponse {
  std::string complaint;  // description of the complaint this answers
  ModelResponse model;    // what actually trained the candidates' models
  std::vector<HierarchyResponse> candidates;
  int best_index = -1;

  bool has_recommendation() const { return best_index >= 0; }

  /// The recommended hierarchy, or nullptr when no candidate produced groups.
  const HierarchyResponse* best() const;

  std::string ToJson() const;
};

/// Answer to a batched RecommendAll call: one response per complaint, in
/// request order, plus how many primitive models the batch actually trained
/// (shared hierarchy extensions train each model once).
///
/// Timing is reported two ways because the batch may run on several worker
/// threads: `train_seconds` sums each model fit's own duration (total CPU
/// work, stable under concurrency), while `wall_seconds` is the end-to-end
/// elapsed time of the call (what a client waited; less than train_seconds
/// when fits overlapped).
/// `models_trained` counts fits THIS call actually performed;
/// `fit_cache_hits` counts the fits it skipped because the process-shared
/// fitted-model cache already held the model (trained by an earlier call of
/// this session or by another session over the same dataset). A fully warm
/// call reports models_trained == 0.
struct BatchExploreResponse {
  std::vector<ExploreResponse> responses;
  int64_t models_trained = 0;
  int64_t fit_cache_hits = 0;
  double train_seconds = 0.0;
  double wall_seconds = 0.0;

  std::string ToJson() const;
};

/// One row of an aggregate view.
struct ViewRow {
  std::vector<std::pair<std::string, std::string>> key;  // (column, value) pairs
  std::map<std::string, double> stats;                   // count / sum / mean / std
};

/// A computed aggregate view plus the merged total.
struct ViewResponse {
  std::vector<std::string> group_by;
  std::vector<ViewRow> rows;
  std::map<std::string, double> total;

  std::string ToJson() const;
};

}  // namespace reptile

#endif  // REPTILE_API_RESPONSE_H_
