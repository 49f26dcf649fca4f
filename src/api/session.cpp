#include "api/session.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <utility>

#include "agg/aggregates.h"
#include "core/engine.h"
#include "core/view.h"
#include "obs/trace.h"

namespace reptile {
namespace {

// Lowercase statistic name used as the key of response stat maps.
std::string StatName(AggFn fn) {
  std::string name = AggFnName(fn);
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

std::map<std::string, double> StatsOf(const Moments& m) {
  return {{"count", m.count}, {"sum", m.sum}, {"mean", m.Mean()}, {"std", m.SampleStd()}};
}

}  // namespace

struct Session::Impl {
  DatasetHandle handle;  // shared immutable dataset + cross-session cache
  std::unique_ptr<Engine> engine;
  std::deque<Table> aux_tables;  // stable addresses; the engine borrows them
  std::vector<std::string> aux_names;

  const Dataset& data() const { return handle->data(); }
};

Session::Session() : impl_(std::make_unique<Impl>()) {}
Session::Session(Session&& other) noexcept = default;
Session& Session::operator=(Session&& other) noexcept = default;
Session::~Session() = default;

Result<Session> Session::Open(DatasetHandle dataset, const ExploreRequest& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("cannot open a session over a null dataset handle");
  }
  Result<EngineOptions> engine_options = options.Resolve();
  if (!engine_options.ok()) return engine_options.status();
  Session session;
  session.impl_->handle = std::move(dataset);
  const DatasetHandle& handle = session.impl_->handle;
  session.impl_->engine =
      std::make_unique<Engine>(&handle->data(), &handle->cache(), &handle->model_cache(),
                               &handle->group_stats_cache(), handle, *engine_options,
                               &handle->epochs(), handle->version_token());
  return session;
}

Result<Session> Session::Create(Dataset dataset, const ExploreRequest& options) {
  Result<DatasetHandle> prepared = PreparedDataset::Prepare(std::move(dataset));
  if (!prepared.ok()) return prepared.status();
  return Open(std::move(prepared).value(), options);
}

Result<Session> Session::Create(Table table, std::vector<HierarchySchema> hierarchies,
                                const ExploreRequest& options) {
  Result<Dataset> dataset = Dataset::Make(std::move(table), std::move(hierarchies));
  if (!dataset.ok()) return dataset.status();
  return Create(std::move(dataset).value(), options);
}

Result<Session> Session::FromCsv(const CsvDatasetRequest& request,
                                 const ExploreRequest& options) {
  Result<Table> table = LoadCsv(request.path, request.csv);
  if (!table.ok()) return table.status();
  return Create(std::move(table).value(), request.hierarchies, options);
}

Status Session::RegisterAuxiliary(AuxiliaryRequest request) {
  const Table& base = impl_->data().table();
  if (request.name.empty()) {
    return Status::InvalidArgument("auxiliary dataset needs a non-empty name");
  }
  for (const std::string& existing : impl_->aux_names) {
    if (existing == request.name) {
      return Status::InvalidArgument("auxiliary '" + request.name + "' is already registered");
    }
  }
  if (request.join_attributes.empty()) {
    return Status::InvalidArgument("auxiliary '" + request.name +
                                   "' needs at least one join attribute");
  }
  for (const std::string& attr : request.join_attributes) {
    if (!impl_->data().FindAttr(attr).has_value()) {
      return Status::NotFound("auxiliary '" + request.name + "' join attribute '" + attr +
                              "' is not a hierarchy attribute of the dataset");
    }
    std::optional<int> aux_column = request.table.FindColumn(attr);
    if (!aux_column.has_value()) {
      return Status::NotFound("auxiliary '" + request.name + "' table has no column '" + attr +
                              "'");
    }
    if (!request.table.is_dimension(*aux_column)) {
      return Status::InvalidArgument("auxiliary '" + request.name + "' join column '" + attr +
                                     "' must be a dimension column");
    }
    // The base column exists because hierarchy attributes are table columns.
    (void)base;
  }
  std::optional<int> measure = request.table.FindColumn(request.measure);
  if (!measure.has_value()) {
    return Status::NotFound("auxiliary '" + request.name + "' table has no measure column '" +
                            request.measure + "'");
  }
  if (request.table.is_dimension(*measure)) {
    return Status::InvalidArgument("auxiliary '" + request.name + "' measure '" +
                                   request.measure + "' is a dimension column");
  }

  impl_->aux_tables.push_back(std::move(request.table));
  AuxiliarySpec spec;
  spec.name = request.name;
  spec.table = &impl_->aux_tables.back();
  spec.join_attrs = request.join_attributes;
  spec.measure = request.measure;
  spec.normalize = request.normalize;
  impl_->engine->RegisterAuxiliary(std::move(spec));
  impl_->aux_names.push_back(request.name);
  return Status::Ok();
}

Status Session::ExcludeFromRandomEffects(const std::string& feature_name) {
  // Feature names are the intercept, dimension (attribute) columns, or
  // registered auxiliary names; a measure column can never name a feature.
  const Table& table = impl_->data().table();
  std::optional<int> column = table.FindColumn(feature_name);
  bool known = feature_name == "intercept" ||
               (column.has_value() && table.is_dimension(*column));
  if (!known) {
    for (const std::string& aux : impl_->aux_names) {
      if (aux == feature_name) known = true;
    }
  }
  if (!known) {
    return Status::NotFound("no feature named '" + feature_name +
                            "' (expected an attribute column or a registered auxiliary)");
  }
  impl_->engine->ExcludeFromRandomEffects(feature_name);
  return Status::Ok();
}

Result<ViewResponse> Session::View(const ViewRequest& request) const {
  const Table& table = impl_->data().table();
  if (request.group_by.empty()) {
    return Status::InvalidArgument("a view needs at least one group-by column");
  }
  ViewSpec spec;
  for (const std::string& column : request.group_by) {
    std::optional<int> index = table.FindColumn(column);
    if (!index.has_value()) {
      return Status::NotFound("group-by column '" + column + "' does not exist");
    }
    if (!table.is_dimension(*index)) {
      return Status::InvalidArgument("group-by column '" + column +
                                     "' is a measure column, not a dimension");
    }
    spec.key_columns.push_back(*index);
  }
  if (!request.measure.empty()) {
    std::optional<int> index = table.FindColumn(request.measure);
    if (!index.has_value()) {
      return Status::NotFound("measure column '" + request.measure + "' does not exist");
    }
    if (table.is_dimension(*index)) {
      return Status::InvalidArgument("column '" + request.measure +
                                     "' is a dimension column, not a measure");
    }
    spec.measure_column = *index;
  }
  for (const NamedPredicate& pred : request.where) {
    std::optional<int> index = table.FindColumn(pred.column);
    if (!index.has_value()) {
      return Status::NotFound("filter column '" + pred.column + "' does not exist");
    }
    if (!table.is_dimension(*index)) {
      return Status::InvalidArgument("filter column '" + pred.column +
                                     "' is a measure column; filters apply to dimensions");
    }
    std::optional<int32_t> code = table.dict(*index).Find(pred.value);
    if (!code.has_value()) {
      return Status::NotFound("value '" + pred.value + "' does not occur in column '" +
                              pred.column + "'");
    }
    spec.filter.Add(*index, *code);
  }

  ViewResult view = ComputeView(table, spec);
  ViewResponse response;
  response.group_by = request.group_by;
  response.rows.reserve(view.groups.num_groups());
  for (size_t g = 0; g < view.groups.num_groups(); ++g) {
    ViewRow row;
    for (size_t k = 0; k < spec.key_columns.size(); ++k) {
      int column = spec.key_columns[k];
      row.key.emplace_back(table.column_name(column),
                           table.dict(column).name(view.groups.key(g, k)));
    }
    row.stats = StatsOf(view.groups.stats(g));
    response.rows.push_back(std::move(row));
  }
  response.total = StatsOf(view.total);
  return response;
}

Result<ExploreResponse> Session::Recommend(const ComplaintSpec& complaint,
                                           const BatchOptions& options) {
  Result<BatchExploreResponse> batch =
      RecommendAll(std::span<const ComplaintSpec>(&complaint, 1), options);
  if (!batch.ok()) return batch.status();
  return std::move(batch->responses.front());
}

Result<BatchExploreResponse> Session::RecommendAll(
    std::initializer_list<ComplaintSpec> complaints, const BatchOptions& options) {
  return RecommendAll(std::span<const ComplaintSpec>(complaints.begin(), complaints.size()),
                      options);
}

Result<BatchExploreResponse> Session::RecommendAll(std::span<const ComplaintSpec> complaints,
                                                   const BatchOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("per-call num_threads must be >= 0 (0 = session option), got " +
                                   std::to_string(options.num_threads));
  }
  if (options.top_k < 0) {
    return Status::InvalidArgument("per-call top_k must be >= 0 (0 = session option), got " +
                                   std::to_string(options.top_k));
  }
  const Dataset& dataset = impl_->data();
  Engine& engine = *impl_->engine;

  // Plan-stage model validation: the per-call spec (or the session's, which
  // feature registrations since Open may have invalidated — e.g. a forced
  // factorised backend vs a newly registered multi-attribute auxiliary).
  REPTILE_RETURN_IF_ERROR(engine.ValidateModelSpec(
      options.model.has_value() ? *options.model : engine.options().model));

  bool any_drillable = false;
  for (int h = 0; h < dataset.num_hierarchies(); ++h) {
    if (engine.CanDrill(h)) any_drillable = true;
  }
  if (!any_drillable) {
    return Status::FailedPrecondition(
        "every hierarchy is fully drilled; the drill-down is exhausted");
  }

  // Validate stage: resolve every complaint (name resolution + the shared
  // ValidateComplaint checks) before any work happens, so a bad complaint in
  // the middle of a batch cannot leave partial effects.
  std::vector<Complaint> resolved;
  resolved.reserve(complaints.size());
  {
    ScopedSpan validate_span(options.trace, "validate");
    for (size_t i = 0; i < complaints.size(); ++i) {
      Result<Complaint> complaint = complaints[i].Resolve(dataset);
      if (!complaint.ok()) {
        const Status& status = complaint.status();
        if (complaints.size() == 1) return status;  // no batch-index prefix for Recommend()
        return Status(status.code(),
                      "complaints[" + std::to_string(i) + "]: " + status.message());
      }
      resolved.push_back(std::move(complaint).value());
    }
  }

  int64_t trained_before = engine.stats().models_trained;
  int64_t cache_hits_before = engine.stats().fit_cache_hits;
  BatchOverrides overrides;
  overrides.num_threads = options.num_threads;
  overrides.top_k = options.top_k;
  overrides.trace = options.trace;
  if (options.model.has_value()) overrides.model = &*options.model;

  // The echo every response carries: the spec the fit stage will run, with
  // "auto" canonicalized to the backend it picks when statically known.
  // Engine::EffectiveModelSpec(overrides) is the ONE resolution point — the
  // engine calls it again with these same overrides for the cache key and
  // the fits, so echo, key and execution cannot drift apart.
  const ModelSpec effective = engine.EffectiveModelSpec(overrides);
  ModelResponse model_echo;
  model_echo.kind = ModelSpec::KindName(effective.kind);
  model_echo.backend = ModelSpec::BackendName(effective.backend);
  model_echo.random_effects = ModelSpec::RandomPolicyName(effective.random_effects);
  model_echo.em_iterations = effective.em_iterations;
  model_echo.em_tolerance = effective.em_tolerance;
  model_echo.fit_cache = effective.fit_cache;
  for (AggFn fn : effective.extra_repair_stats) {
    model_echo.extra_repair_stats.push_back(StatName(fn));
  }

  BatchTiming timing;
  std::vector<Recommendation> recommendations = engine.RecommendBatch(
      std::span<const Complaint>(resolved.data(), resolved.size()), overrides, &timing);
  // Known only after the fits ran (or were found in the cache, which stores
  // the realized count): how many EM iterations the training loop executed.
  model_echo.em_iterations_run = timing.em_iterations_run;

  BatchExploreResponse batch;
  batch.models_trained = engine.stats().models_trained - trained_before;
  batch.fit_cache_hits = engine.stats().fit_cache_hits - cache_hits_before;
  batch.train_seconds = timing.train_seconds;
  batch.wall_seconds = timing.wall_seconds;
  batch.responses.reserve(recommendations.size());
  const Table& table = dataset.table();
  for (size_t i = 0; i < recommendations.size(); ++i) {
    const Recommendation& rec = recommendations[i];
    ExploreResponse response;
    response.complaint = complaints[i].Describe();
    response.model = model_echo;
    response.best_index = rec.best_index;
    response.candidates.reserve(rec.candidates.size());
    for (const HierarchyRecommendation& cand : rec.candidates) {
      HierarchyResponse hr;
      hr.hierarchy = dataset.hierarchy(cand.hierarchy).name;
      hr.attribute = cand.attribute;
      hr.best_score = cand.best_score;
      hr.model_rows = cand.model_rows;
      hr.model_clusters = cand.model_clusters;
      hr.train_seconds = cand.train_seconds;
      hr.total_seconds = cand.total_seconds;
      hr.groups.reserve(cand.top_groups.size());
      for (const GroupRecommendation& g : cand.top_groups) {
        GroupResponse gr;
        gr.description = g.description;
        for (size_t k = 0; k < cand.key_columns.size() && k < g.key.size(); ++k) {
          int column = cand.key_columns[k];
          gr.key.emplace_back(table.column_name(column), table.dict(column).name(g.key[k]));
        }
        gr.observed = StatsOf(g.observed);
        gr.repaired = StatsOf(g.repaired);
        for (const auto& [fn, value] : g.predicted) gr.predicted[StatName(fn)] = value;
        gr.repaired_complaint_value = g.repaired_complaint_value;
        gr.score = g.score;
        hr.groups.push_back(std::move(gr));
      }
      response.candidates.push_back(std::move(hr));
    }
    batch.responses.push_back(std::move(response));
  }
  return batch;
}

namespace {

// Resolves a hierarchy by schema name or by any of its attribute names.
Result<int> ResolveHierarchy(const Dataset& dataset, const std::string& name) {
  std::optional<int> hierarchy = dataset.FindHierarchy(name);
  if (hierarchy.has_value()) return *hierarchy;
  std::optional<AttrId> attr = dataset.FindAttr(name);
  if (attr.has_value()) return attr->hierarchy;
  return Status::NotFound("no hierarchy or hierarchy attribute named '" + name + "'");
}

}  // namespace

Status Session::Commit(const std::string& hierarchy) {
  Result<int> index = ResolveHierarchy(impl_->data(), hierarchy);
  if (!index.ok()) return index.status();
  if (!impl_->engine->CanDrill(*index)) {
    const HierarchySchema& schema = impl_->data().hierarchy(*index);
    return Status::FailedPrecondition(
        "hierarchy '" + schema.name + "' is already fully drilled (depth " +
        std::to_string(impl_->engine->drill_depth(*index)) + " of " +
        std::to_string(schema.depth()) + ")");
  }
  impl_->engine->CommitDrillDown(*index);
  return Status::Ok();
}

Result<int> Session::DrillDepth(const std::string& hierarchy) const {
  Result<int> index = ResolveHierarchy(impl_->data(), hierarchy);
  if (!index.ok()) return index.status();
  return impl_->engine->drill_depth(*index);
}

Result<bool> Session::CanDrill(const std::string& hierarchy) const {
  Result<int> index = ResolveHierarchy(impl_->data(), hierarchy);
  if (!index.ok()) return index.status();
  return impl_->engine->CanDrill(*index);
}

std::map<std::string, int> Session::CommittedDepths() const {
  const Dataset& dataset = impl_->data();
  std::map<std::string, int> committed;
  for (int h = 0; h < dataset.num_hierarchies(); ++h) {
    committed[dataset.hierarchy(h).name] = impl_->engine->drill_depth(h);
  }
  return committed;
}

Status Session::RestoreCommitted(const std::map<std::string, int>& committed) {
  const Dataset& dataset = impl_->data();
  // Validate the whole map first so a bad entry cannot leave the session
  // half-restored.
  for (const auto& [name, depth] : committed) {
    std::optional<int> hierarchy = dataset.FindHierarchy(name);
    if (!hierarchy.has_value()) {
      return Status::NotFound("no hierarchy named '" + name + "'");
    }
    const HierarchySchema& schema = dataset.hierarchy(*hierarchy);
    if (depth < 0 || depth > schema.depth()) {
      return Status::InvalidArgument(
          "committed depth for hierarchy '" + name + "' must be in [0, " +
          std::to_string(schema.depth()) + "], got " + std::to_string(depth));
    }
    if (impl_->engine->drill_depth(*hierarchy) > depth) {
      return Status::FailedPrecondition(
          "hierarchy '" + name + "' is already at depth " +
          std::to_string(impl_->engine->drill_depth(*hierarchy)) +
          "; drill-downs cannot be undone to depth " + std::to_string(depth));
    }
  }
  for (const auto& [name, depth] : committed) {
    int hierarchy = *dataset.FindHierarchy(name);
    while (impl_->engine->drill_depth(hierarchy) < depth) {
      impl_->engine->CommitDrillDown(hierarchy);
    }
  }
  return Status::Ok();
}

DatasetHandle Session::dataset() const { return impl_->handle; }

int64_t Session::models_trained() const { return impl_->engine->stats().models_trained; }

int64_t Session::fit_cache_hits() const { return impl_->engine->stats().fit_cache_hits; }

int64_t Session::aggregate_builds() const { return impl_->engine->aggregate_builds(); }

}  // namespace reptile
