// reptile::Session — the public facade over the engine (paper Section 2.1's
// interactive loop): load a hierarchical dataset, file complaints by column
// name, receive ranked drill-down recommendations, commit one, repeat.
//
// Contract:
//  * All user-input failure paths return Status / Result<T>; the session
//    never aborts on bad input (internal invariants still REPTILE_CHECK).
//  * Requests are name-based (api/request.h) and responses are plain
//    serializable data (api/response.h); engine internals never cross the
//    boundary.
//  * RecommendAll batches many complaints over one pass of the drill-down
//    caches: complaints sharing a hierarchy extension reuse the extended
//    feature matrix and each trained primitive model. Results are identical
//    to issuing the complaints one at a time.
//
// Ownership (the dataset/session split, api/registry.h): a Session is a
// LIGHTWEIGHT VIEW over a shared immutable PreparedDataset. It owns only the
// per-analyst state — committed drill depths, registered auxiliaries,
// random-effect exclusions — while the table, hierarchies, f-trees and
// (hierarchy, depth) aggregate entries live in the handle and are shared by
// every session opened over it. Committing a drill-down copies nothing; two
// sessions at the same drill state read the very same cached aggregates.
// Session::Create remains as a convenience that prepares a private dataset
// and opens the one session over it.

#ifndef REPTILE_API_SESSION_H_
#define REPTILE_API_SESSION_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/request.h"
#include "api/response.h"
#include "api/status.h"
#include "data/csv.h"
#include "data/dataset.h"

namespace reptile {

/// How to load a session dataset straight from a CSV file.
struct CsvDatasetRequest {
  std::string path;
  CsvSpec csv;                              // column typing
  std::vector<HierarchySchema> hierarchies;  // hierarchy metadata
};

class Session {
 public:
  /// Opens a per-analyst session over a shared prepared dataset (from a
  /// DatasetRegistry or PreparedDataset::Prepare). The session holds the
  /// handle, so the dataset outlives any registry eviction.
  static Result<Session> Open(DatasetHandle dataset, const ExploreRequest& options = {});

  /// Creates a session over an exclusively owned dataset: prepares the
  /// dataset privately and opens the one session over it.
  static Result<Session> Create(Dataset dataset, const ExploreRequest& options = {});

  /// Validates the hierarchy metadata against the table, then creates the
  /// session. All metadata errors come back as Status.
  static Result<Session> Create(Table table, std::vector<HierarchySchema> hierarchies,
                                const ExploreRequest& options = {});

  /// Loads the base relation from CSV (precise parse errors, see
  /// data/csv.h), then creates the session.
  static Result<Session> FromCsv(const CsvDatasetRequest& request,
                                 const ExploreRequest& options = {});

  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  ~Session();

  /// Registers an auxiliary dataset (the session copies and owns the table).
  Status RegisterAuxiliary(AuxiliaryRequest request);

  /// Excludes a feature (attribute or auxiliary name) from the random-effect
  /// matrix Z (paper §3.3.4); only meaningful with ModelSpec::RandomPolicy::kAll.
  Status ExcludeFromRandomEffects(const std::string& feature_name);

  /// Computes an aggregate view — the object the user inspects before
  /// complaining (paper §3.1).
  Result<ViewResponse> View(const ViewRequest& request) const;

  /// Evaluates one complaint against every drillable hierarchy and returns
  /// the ranked drill-down groups. FailedPrecondition when every hierarchy
  /// is exhausted. `options` holds per-call overrides (thread count, top-k)
  /// that apply to this invocation only.
  Result<ExploreResponse> Recommend(const ComplaintSpec& complaint,
                                    const BatchOptions& options = {});

  /// Batched entry point: plans all complaints over one pass of the
  /// drill-down caches, training each shared (hierarchy, measure, primitive)
  /// model at most once, with plan assembly, model fits, and per-complaint
  /// ranking fanned out across the session's worker threads
  /// (ExploreRequest::Threads at construction, BatchOptions::Threads per
  /// call). responses[i] answers complaints[i] exactly as a sequential
  /// Recommend(complaints[i]) would, at any thread count.
  ///
  /// Sessions are not thread-safe: issue one call at a time per session;
  /// parallelism happens inside the call. DIFFERENT sessions over one shared
  /// dataset may call concurrently — the shared cache is internally
  /// synchronized.
  Result<BatchExploreResponse> RecommendAll(std::span<const ComplaintSpec> complaints,
                                            const BatchOptions& options = {});
  Result<BatchExploreResponse> RecommendAll(std::initializer_list<ComplaintSpec> complaints,
                                            const BatchOptions& options = {});

  /// Commits a drill-down on the named hierarchy (schema name, e.g. "geo",
  /// or any of its attribute names, e.g. "village"). NotFound for unknown
  /// names, FailedPrecondition when the hierarchy is already fully drilled.
  /// Per-session: other sessions over the same dataset are unaffected.
  Status Commit(const std::string& hierarchy);

  /// Current drill depth of the named hierarchy.
  Result<int> DrillDepth(const std::string& hierarchy) const;

  /// True when the named hierarchy has at least one undrilled attribute.
  Result<bool> CanDrill(const std::string& hierarchy) const;

  /// Committed drill depth per hierarchy (schema name -> depth): the
  /// session's persistable drill state, restorable via RestoreCommitted —
  /// the snapshot the server's GET /v1/sessions/{id} serves.
  std::map<std::string, int> CommittedDepths() const;

  /// Re-commits drill-downs until every named hierarchy reaches its target
  /// depth (session persist/restore and POST /v1/sessions {"committed"}).
  /// NotFound for unknown hierarchy names, InvalidArgument for a negative or
  /// too-deep target, FailedPrecondition when a hierarchy is already past
  /// the target (drill-downs cannot be undone).
  Status RestoreCommitted(const std::map<std::string, int>& committed);

  /// The shared prepared dataset this session reads. Returning the handle
  /// (not a reference into the session) means the result stays valid across
  /// session moves and after the session is destroyed or the registry drops
  /// the dataset.
  DatasetHandle dataset() const;

  /// Total primitive-model fits THIS session actually performed so far. A
  /// session warmed by the shared fitted-model cache — its own earlier calls
  /// or other sessions over the same dataset trained the models — performs
  /// zero: the zero-fit warm-session counter.
  int64_t models_trained() const;

  /// Fits this session skipped because the shared fitted-model cache already
  /// held the model.
  int64_t fit_cache_hits() const;

  /// Aggregate (f-tree + local aggregates) builds this session performed.
  /// A session whose shared cache was already warmed by another session
  /// performs zero — the cross-session sharing counter.
  int64_t aggregate_builds() const;

 private:
  Session();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace reptile

#endif  // REPTILE_API_SESSION_H_
