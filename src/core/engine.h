// The Reptile engine (paper Sections 2.1, 3 and 4.5).
//
// An Engine is a per-session object owning the dataset, the feature registry
// (auxiliary datasets, custom and multi-attribute features), and the
// drill-down aggregate caches. Each RecommendDrillDown(complaint) call runs
// the full pipeline of Section 4.5 for every candidate hierarchy:
//
//   1. extend the factorised feature matrix with the candidate's next
//      attribute (candidate hierarchy last in the attribute order),
//   2. recompute that hierarchy's local decomposed aggregates (multi-query
//      plan) and update the others in O(1) via the drill-down cache,
//   3. group the table's rows once per measure (one GroupBy whose groups
//      are placed at their matrix rows), then build from those groups the
//      y vector over all parallel groups (empty groups read 0) and the
//      feature columns for every primitive statistic the complaint
//      decomposes into,
//   4. fit one multi-level model per primitive via EM (factorised backend
//      when all features are single-attribute, dense otherwise),
//   5. repair every group under the complaint tuple with the model's
//      expectations and rank by the repaired complaint value.
//
// The best hierarchy and its top-K groups are returned; CommitDrillDown
// advances the session state.

#ifndef REPTILE_CORE_ENGINE_H_
#define REPTILE_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/model_spec.h"
#include "api/status.h"
#include "core/complaint.h"
#include "core/ranker.h"
#include "data/dataset.h"
#include "factor/drilldown.h"
#include "model/features.h"
#include "model/multilevel.h"

namespace reptile {

class SharedFittedModelCache;  // factor/model_cache.h
struct FittedModel;            // factor/model_cache.h
class TraceContext;            // obs/trace.h

/// A registered auxiliary dataset (Section 3.3.2 / Appendix H): joined on one
/// or more hierarchy attributes, exposing one measure as a feature. The
/// engine aligns the auxiliary table's dictionaries with the base table's.
struct AuxiliarySpec {
  std::string name;
  const Table* table = nullptr;          // borrowed; must outlive the engine
  std::vector<std::string> join_attrs;   // hierarchy attribute names
  std::string measure;                   // measure column in the aux table
  bool normalize = true;
};

/// A registered custom feature (Section 3.3.3): q(A, Y) mapping per-value
/// group statistics to feature values.
struct CustomFeatureSpec {
  std::string name;
  std::string attr;  // hierarchy attribute name
  CustomFeatureFn fn;
};

struct EngineOptions {
  int top_k = 5;
  // How models are trained: family, backend, random-effect policy, EM caps,
  // extra repair primitives, fitted-model-cache opt-out.
  ModelSpec model;
  DrillDownState::Mode drill_mode = DrillDownState::Mode::kCacheDynamic;
  // Worker threads for the plan/execute fan-out: 0 = hardware concurrency,
  // 1 = fully sequential (inline, no pool). Every width above 1 runs on the
  // process-wide SharedThreadPool(), so many concurrent engines in one
  // process (a server) share one set of workers and no width starts
  // threads of its own. Recommendations are element-wise identical at every
  // setting; only the timing fields differ.
  int num_threads = 0;
};

/// Per-invocation overrides for one RecommendBatch call, distinct from the
/// engine-construction options. Zero-valued (or null) fields inherit
/// EngineOptions.
struct BatchOverrides {
  int num_threads = 0;  // 0 = engine option; 1 = force sequential
  int top_k = 0;        // 0 = engine option
  // Complete per-call ModelSpec: nullptr = engine option. When set it
  // replaces the engine's model configuration wholesale for this call.
  // The pointee is borrowed for the duration of the call.
  const ModelSpec* model = nullptr;
  // Per-request trace (obs/trace.h): when set, RecommendBatch records
  // plan/fit/rank stage spans (the fit span's detail carries the cache
  // hit/miss split) onto it. nullptr = untraced, zero recording overhead.
  // Borrowed for the duration of the call.
  TraceContext* trace = nullptr;
};

/// Batch-level timing: the summed per-task fit durations (what the work
/// cost) next to the end-to-end wall clock (what the caller waited). Under
/// concurrency train_seconds can exceed wall_seconds; summing candidates'
/// wall clocks instead would double-count overlapping tasks.
struct BatchTiming {
  double wall_seconds = 0.0;
  double train_seconds = 0.0;
  // Max realized EM iteration count over every fit the batch consulted —
  // trained this call or served from the shared cache (the cached model
  // stores the count of the call that trained it, so warm and cold batches
  // report the same number). 0 when no multi-level fit was involved.
  int em_iterations_run = 0;
};

/// One recommended drill-down group.
struct GroupRecommendation {
  std::string description;          // "year=1986, village=Zata"
  std::vector<int32_t> key;         // codes over the drill key columns
  Moments observed;
  Moments repaired;
  std::map<AggFn, double> predicted;  // per primitive statistic
  double repaired_complaint_value = 0.0;
  double score = 0.0;
};

/// Result of evaluating one candidate hierarchy.
struct HierarchyRecommendation {
  int hierarchy = -1;
  std::string attribute;          // the newly added (drilled) attribute
  std::vector<int> key_columns;   // table columns the group keys range over
  std::vector<GroupRecommendation> top_groups;
  double best_score = 0.0;
  int64_t model_rows = 0;      // parallel groups (incl. empty)
  int64_t model_clusters = 0;  // multi-level clusters
  // Work actually performed while answering this complaint: the summed
  // durations of the individual model fits this complaint was the first (in
  // batch order) to require; fits served from the batch's model cache
  // contribute 0. Summing per-fit durations keeps the number meaningful when
  // fits run concurrently — it is CPU work, not elapsed time (see
  // BatchTiming for the wall clock). Recommendations are batch/sequential-
  // and thread-count-identical; timings are not.
  double train_seconds = 0.0;
  double total_seconds = 0.0;
};

/// The full recommendation: all candidates plus the arg-min hierarchy.
struct Recommendation {
  std::vector<HierarchyRecommendation> candidates;
  int best_index = -1;

  const HierarchyRecommendation& best() const;
};

/// Work counters for one engine, reset on demand. `models_trained` counts
/// primitive-model fits THIS engine actually performed: a batched invocation
/// trains each shared (hierarchy, measure, primitive) model at most once,
/// and a fit served by the process-shared fitted-model cache — warmed by an
/// earlier call of this session or by another session over the same prepared
/// dataset — counts under `fit_cache_hits` instead. A fully warm call
/// therefore shows models_trained == 0.
struct EngineStats {
  int64_t models_trained = 0;
  int64_t fit_cache_hits = 0;
  int64_t plans_built = 0;
  int64_t complaints_evaluated = 0;
};

/// The engine pipeline is staged so the batched entry point can enter
/// mid-way (Section 4.5 / the LMFAO-style multi-query planning of §5.1.2):
///
///   validate — ValidateComplaint / ValidateModelSpec: user-input checks as
///              Status (no aborts);
///   plan     — per candidate hierarchy, assemble trees / drill-down caches /
///              the factorised layout once, shared by every complaint;
///   execute  — per (measure, primitive) train one model — first consulting
///              the process-shared fitted-model cache (factor/model_cache.h)
///              when the effective ModelSpec allows, so warm sessions skip
///              training entirely and concurrent sessions racing on one key
///              fit once between them — then per complaint rank its sibling
///              groups.
///
/// Within one RecommendBatch call, plan assembly, model fits, and complaint
/// rankings are independent tasks dispatched over a fixed-size worker pool
/// (EngineOptions::num_threads / BatchOverrides::num_threads); every task is
/// single-threaded internally and all inputs it shares (dataset, f-trees,
/// local aggregates, the plan's group statistics) are immutable by the time
/// it runs, so output is deterministic and element-wise identical to the
/// sequential path.
class Engine {
 public:
  /// Borrowing constructor: the engine reads `dataset` (caller keeps it
  /// alive) and owns a private drill-down cache — the pre-registry behavior,
  /// used by benchmarks and tests that drive one engine over one dataset.
  explicit Engine(const Dataset* dataset, EngineOptions options = EngineOptions());

  /// Shared constructor: the engine reads/fills the cross-session caches, so
  /// every engine over the same prepared dataset shares f-trees,
  /// committed-depth aggregates AND fitted primitive models; `owner` keeps
  /// whatever object holds `dataset` and the caches (api/'s PreparedDataset)
  /// alive without core/ depending on the api/ facade. The aggregate cache
  /// is used under the default kCacheDynamic drill mode (the evicting
  /// kStatic/kDynamic modes fall back to a private cache — their eviction is
  /// the point of those policies); the model cache is consulted whenever the
  /// effective ModelSpec has fit_cache on. Either cache may be null.
  ///
  /// Version plumbing (incremental dataset versions, api/registry.h):
  /// `epochs` (borrowed via owner; nullptr = all-1s, the unversioned
  /// default) selects which version's entries this engine addresses in the
  /// shared aggregate cache, and `version_token` (empty for v1) is appended
  /// to every fitted-model cache key — an appended version's group
  /// statistics include the new rows, so its fits must never collide with
  /// its ancestors' in the shared cache the whole chain reads.
  Engine(const Dataset* dataset, SharedAggregateCache* shared_cache,
         SharedFittedModelCache* model_cache, std::shared_ptr<const void> owner,
         EngineOptions options = EngineOptions(),
         const AggregateEpochs* epochs = nullptr,
         std::string version_token = std::string());

  ~Engine();

  /// Registers an auxiliary dataset; its features apply automatically once
  /// every join attribute is part of the drill-down (Section 3.3.2).
  void RegisterAuxiliary(AuxiliarySpec spec);

  /// Registers a custom featurizer for one attribute.
  void RegisterCustomFeature(CustomFeatureSpec spec);

  /// Excludes a feature (by name) from the random-effect matrix Z
  /// (Section 3.3.4). Attribute main-effect features carry their attribute's
  /// name; auxiliary/custom features carry their spec name.
  void ExcludeFromRandomEffects(const std::string& feature_name);

  /// Validate stage: checks a pre-built complaint's column indices and codes
  /// against the dataset (delegates to core/complaint's ValidateComplaint —
  /// name-based construction via ResolveComplaint validates implicitly).
  Status ValidateComplaint(const Complaint& complaint) const;

  /// Validate stage, model half: the spec's own range checks plus
  /// feature-dependent constraints — forcing the factorised backend while a
  /// multi-attribute auxiliary is registered would abort at fit time, so it
  /// is rejected here as Status instead.
  Status ValidateModelSpec(const ModelSpec& spec) const;

  /// The ModelSpec a call with `overrides` would actually run: the per-call
  /// spec (or the engine option) with kAuto canonicalized to the backend it
  /// will pick when that is statically known (every feature single-attribute
  /// — always true without multi-attribute auxiliaries). This is both the
  /// response echo and the fitted-model cache-key spec, so what clients see
  /// is what keyed the cache.
  ModelSpec EffectiveModelSpec(const BatchOverrides& overrides = {}) const;

  /// Evaluates every drillable hierarchy and returns the ranked groups.
  Recommendation RecommendDrillDown(const Complaint& complaint);

  /// Batched entry point: plans all complaints over one pass of the
  /// drill-down caches. Complaints that share a hierarchy extension reuse the
  /// feature-matrix extension and the trained primitive models. Per-hierarchy
  /// plan assembly, per-(hierarchy, measure, primitive) model fits, and
  /// per-complaint ranking fan out across a fixed-size worker pool (the
  /// num_threads knob; each individual fit stays single-threaded) and results
  /// are merged in complaint order, so the recommendations are element-wise
  /// identical to N sequential RecommendDrillDown calls at any thread count
  /// (timing fields reflect the shared work). The engine itself is not
  /// thread-safe: callers issue one batch at a time; concurrency is internal.
  std::vector<Recommendation> RecommendBatch(std::span<const Complaint> complaints,
                                             const BatchOverrides& overrides = {},
                                             BatchTiming* timing = nullptr);

  /// Commits the drill-down on `hierarchy` (advances the session state).
  void CommitDrillDown(int hierarchy);

  int drill_depth(int hierarchy) const { return drill_state_.depth(hierarchy); }
  bool CanDrill(int hierarchy) const { return drill_state_.CanDrill(hierarchy); }
  const Dataset& dataset() const { return *dataset_; }
  const EngineOptions& options() const { return options_; }
  const EngineStats& stats() const { return stats_; }
  /// Aggregate (f-tree + locals) builds THIS engine performed; an engine
  /// warmed by its handle's shared cache performs zero.
  int64_t aggregate_builds() const { return drill_state_.total_builds(); }
  void ResetStats() {
    stats_ = EngineStats();
    drill_state_.ResetStats();  // keep aggregate_builds() consistent with stats()
  }

 private:
  struct CandidatePlan;  // defined in engine.cpp

  /// Plan stage: assembles the shared per-hierarchy context (trees, caches,
  /// factorised layout) for drilling `hierarchy` one level deeper. Reads the
  /// drill-down cache only (entries are prefetched by RecommendBatch), so
  /// plans for different hierarchies assemble concurrently.
  std::unique_ptr<CandidatePlan> BuildCandidatePlan(int hierarchy) const;

  /// Execute stage, model half: fits one primitive statistic over one
  /// measure column against the plan's shared context, the way `spec` says.
  /// Const — reads the plan's group statistics (the measure's non-empty
  /// groups and their matrix rows; y is zero except at those rows), returns
  /// the fit; the caller owns caching (per-invocation plan map and/or the
  /// shared model cache).
  FittedModel FitPrimitive(const CandidatePlan& plan, int measure_column, AggFn primitive,
                           const ModelSpec& spec) const;

  /// Shared fitted-model cache key for one (plan, measure, primitive) fit
  /// under `spec`: the feature-registration token, random-effect policy,
  /// canonical spec, every hierarchy's committed depth, and the fit
  /// coordinates. Everything a fitted model is a function of, given the
  /// immutable prepared dataset.
  std::string FitCacheKey(const ModelSpec& spec, int hierarchy, int measure_column,
                          AggFn primitive) const;

  /// Re-partitions this engine's future fitted-model cache keys; called by
  /// every feature-registration mutator (auxiliaries, custom features,
  /// random-effect exclusions). Models fitted under a different feature set
  /// are never reused; engines whose registrations are value-equal land in
  /// the same partition (see feature_token_ below).
  void BumpFeatureToken();

  /// Execute stage, ranking half: scores one complaint's sibling groups
  /// against the plan's trained models (all fits are already in the plan).
  /// `extra_stats` is the batch-effective extra-repair list (per-call
  /// override or the engine option); `charged_train_seconds` / `charge_build`
  /// carry the deterministic cost attribution computed by RecommendBatch.
  HierarchyRecommendation ExecuteComplaint(const CandidatePlan& plan,
                                           const Complaint& complaint, int top_k,
                                           const std::vector<AggFn>& extra_stats,
                                           double charged_train_seconds,
                                           bool charge_build) const;

  std::shared_ptr<const void> owner_;  // may be null; keeps dataset_ alive
  const Dataset* dataset_;
  SharedFittedModelCache* model_cache_;  // borrowed via owner_; may be null
  EngineOptions options_;
  DrillDownState drill_state_;
  // Fitted-model cache key partition for this engine's feature
  // registrations: empty = the shareable default feature set (no
  // auxiliaries, custom features or Z exclusions); "h:<hash>" = a content
  // hash of the registered auxiliaries and Z exclusions, so sessions with
  // equal registrations share models — across processes too, which is what
  // lets snapshots persist these partitions; "#<epoch>" = a process-unique
  // fallback for custom features (opaque std::functions have no content
  // identity), never shared and never persisted.
  std::string feature_token_;
  // Dataset-version component of every fitted-model cache key ("" for v1 —
  // legacy keys and persisted snapshots stay valid); see the shared ctor.
  std::string version_token_;
  std::vector<AuxiliarySpec> auxiliaries_;
  std::vector<CustomFeatureSpec> custom_features_;
  std::vector<std::string> z_exclusions_;
  EngineStats stats_;
};

}  // namespace reptile

#endif  // REPTILE_CORE_ENGINE_H_
