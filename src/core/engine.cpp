#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include <atomic>

#include "common/check.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "core/repair.h"
#include "data/group_by.h"
#include "factor/frep.h"
#include "factor/group_stats_cache.h"
#include "factor/model_cache.h"
#include "fmatrix/materialize.h"
#include "fmatrix/right_mult.h"
#include "model/linear.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace reptile {
namespace {

// Context assembled once per candidate evaluation.
struct CandidateContext {
  std::vector<const FTree*> trees;                 // intercept first, candidate last
  std::vector<const LocalAggregates*> locals;      // aligned with trees
  std::vector<std::vector<int>> tree_columns;      // table columns per tree
  std::vector<int> key_columns;                    // flattened (no intercept)
};

// Attribute id of a table column among the drilled attributes, or nullopt.
std::optional<AttrId> FindDrilledAttr(const CandidateContext& ctx, int table_column) {
  for (size_t k = 1; k < ctx.tree_columns.size(); ++k) {
    for (size_t l = 0; l < ctx.tree_columns[k].size(); ++l) {
      if (ctx.tree_columns[k][l] == table_column) {
        return AttrId{static_cast<int>(k), static_cast<int>(l)};
      }
    }
  }
  return std::nullopt;
}

// Matrix row of every group in `layout`. The plan's trees were built from
// the very table the groups come from, so every group's path is present.
std::vector<int64_t> MatrixRowsOf(const FactorizedMatrix& layout, const CandidateContext& ctx,
                                  const GroupByResult& groups) {
  std::vector<int64_t> rows = GroupMatrixRows(layout, groups, ctx.tree_columns);
  for (int64_t row : rows) REPTILE_CHECK_GE(row, 0) << "group missing from f-tree";
  return rows;
}

// Primitive statistics one complaint needs: its own decomposition plus any
// extra statistics frepair should restore (Appendix N). `extra_stats` is the
// batch-effective list: the per-call override when given, else the engine
// option.
std::vector<AggFn> ComplaintPrimitives(const Complaint& complaint,
                                       const std::vector<AggFn>& extra_stats) {
  std::vector<AggFn> primitives = RequiredPrimitives(complaint.agg);
  for (AggFn extra : extra_stats) {
    for (AggFn required : RequiredPrimitives(extra)) {
      if (std::find(primitives.begin(), primitives.end(), required) == primitives.end()) {
        primitives.push_back(required);
      }
    }
  }
  return primitives;
}

// Fallback token source for feature sets that cannot be content-hashed
// (custom features wrap opaque std::functions): every mutation mints a
// process-unique token, so such sessions never exchange models with anyone —
// including their own past.
std::atomic<uint64_t> g_feature_epoch{0};

}  // namespace

// Plan-stage product: everything about drilling one hierarchy a level deeper
// that is independent of the individual complaint, so a batch of complaints
// sharing this hierarchy extension shares it too. The intercept tree and its
// aggregates are per-plan copies (they are a few bytes): no two plans — and
// no two concurrent batches of different engines — share mutable or lazily
// initialised state. Group statistics and trained primitive models are keyed
// by the complaint's measure column; RecommendBatch fills them in dedicated
// parallel stages before any complaint ranking reads them.
struct Engine::CandidatePlan {
  int hierarchy = -1;
  std::string attribute;  // the newly added (drilled) attribute
  FTree intercept_tree;
  LocalAggregates intercept_locals;
  CandidateContext ctx;
  FactorizedMatrix layout;  // reference matrix for layout queries
  double build_seconds = 0.0;

  // Per measure column (-1 = COUNT only): the table's non-empty groups over
  // the plan's key columns and each group's matrix row in `layout` — the one
  // statistics pass that y (every primitive), featurization and sibling
  // selection read. shared_ptr because the entry is owned by the
  // group-statistics cache, and so by every batch that reads the same key.
  std::map<int, std::shared_ptr<const GroupStats>> stats;

  // Trained models: (measure column, primitive) -> fit. shared_ptr because
  // an entry may be owned by the process-shared fitted-model cache (and so
  // by every concurrent batch that hit the same key) rather than this plan.
  std::map<std::pair<int, AggFn>, std::shared_ptr<const FittedModel>> fits;
};

const HierarchyRecommendation& Recommendation::best() const {
  REPTILE_CHECK(best_index >= 0 && best_index < static_cast<int>(candidates.size()))
      << "no drill-down candidate available";
  return candidates[static_cast<size_t>(best_index)];
}

Engine::Engine(const Dataset* dataset, SharedAggregateCache* shared_cache,
               SharedFittedModelCache* model_cache, GroupStatsCache* stats_cache,
               std::shared_ptr<const void> owner, EngineOptions options,
               const AggregateEpochs* epochs, std::string version_token)
    : owner_(std::move(owner)),
      dataset_(dataset),
      model_cache_(model_cache),
      own_stats_cache_(stats_cache == nullptr ? std::make_unique<GroupStatsCache>() : nullptr),
      stats_cache_(stats_cache == nullptr ? own_stats_cache_.get() : stats_cache),
      options_(options),
      drill_state_(dataset, options.drill_mode, shared_cache, epochs),
      version_token_(std::move(version_token)) {
  REPTILE_CHECK(dataset != nullptr);
  REPTILE_CHECK_GE(options_.num_threads, 0);
}

Engine::Engine(const Dataset* dataset, EngineOptions options)
    : Engine(dataset, nullptr, nullptr, nullptr, nullptr, options) {}

Engine::~Engine() = default;

void Engine::BumpFeatureToken() {
  // A custom feature is an opaque std::function — no stable content identity
  // exists, so the partition falls back to a process-unique epoch token.
  // Such keys start with '#' and are skipped by snapshot persistence.
  if (!custom_features_.empty()) {
    feature_token_ =
        "#" + std::to_string(g_feature_epoch.fetch_add(1, std::memory_order_relaxed) + 1);
    return;
  }
  // Otherwise the feature set is fully value-determined: hash the auxiliary
  // registrations (spec fields AND the joined table's contents — the table
  // is borrowed, so identity says nothing) plus the Z exclusions. Equal
  // registrations produce equal tokens across sessions and across process
  // restarts, which is what lets persisted fitted-model entries warm a
  // fresh process (api/dataset_snapshot.h).
  Fnv1aHasher hasher;
  hasher.MixU64(auxiliaries_.size());
  for (const AuxiliarySpec& aux : auxiliaries_) {
    hasher.MixString(aux.name);
    hasher.MixU64(aux.join_attrs.size());
    for (const std::string& attr : aux.join_attrs) hasher.MixString(attr);
    hasher.MixString(aux.measure);
    hasher.MixBool(aux.normalize);
    const Table& table = *aux.table;
    hasher.MixU64(table.num_rows());
    hasher.MixI64(table.num_columns());
    for (int c = 0; c < table.num_columns(); ++c) {
      hasher.MixString(table.column_name(c));
      hasher.MixBool(table.is_dimension(c));
      if (table.is_dimension(c)) {
        const ValueDict& dict = table.dict(c);
        hasher.MixI32(dict.size());
        for (int32_t code = 0; code < dict.size(); ++code) hasher.MixString(dict.name(code));
        for (int32_t code : table.dim_codes(c)) hasher.MixI32(code);
      } else {
        for (double v : table.measure(c)) hasher.MixDouble(v);
      }
    }
  }
  hasher.MixU64(z_exclusions_.size());
  for (const std::string& name : z_exclusions_) hasher.MixString(name);
  feature_token_ = "h:" + hasher.Hex();
}

void Engine::RegisterAuxiliary(AuxiliarySpec spec) {
  REPTILE_CHECK(spec.table != nullptr);
  REPTILE_CHECK(!spec.join_attrs.empty());
  (void)spec.table->ColumnIndex(spec.measure);  // validate eagerly
  for (const std::string& attr : spec.join_attrs) {
    (void)dataset_->ResolveAttr(attr);
    (void)spec.table->ColumnIndex(attr);
  }
  auxiliaries_.push_back(std::move(spec));
  BumpFeatureToken();
}

void Engine::RegisterCustomFeature(CustomFeatureSpec spec) {
  (void)dataset_->ResolveAttr(spec.attr);
  REPTILE_CHECK(spec.fn != nullptr);
  custom_features_.push_back(std::move(spec));
  BumpFeatureToken();
}

void Engine::ExcludeFromRandomEffects(const std::string& feature_name) {
  z_exclusions_.push_back(feature_name);
  BumpFeatureToken();
}

Status Engine::ValidateComplaint(const Complaint& complaint) const {
  return ::reptile::ValidateComplaint(dataset_->table(), complaint);
}

Status Engine::ValidateModelSpec(const ModelSpec& spec) const {
  REPTILE_RETURN_IF_ERROR(spec.Validate());
  if (spec.backend == ModelSpec::Backend::kFactorized) {
    for (const AuxiliarySpec& aux : auxiliaries_) {
      if (aux.join_attrs.size() > 1) {
        return Status::InvalidArgument(
            "backend 'factorized' cannot be forced while the multi-attribute auxiliary '" +
            aux.name +
            "' is registered (its feature spans several attributes and requires "
            "materialisation); use backend 'auto' or 'dense'");
      }
    }
  }
  return Status::Ok();
}

ModelSpec Engine::EffectiveModelSpec(const BatchOverrides& overrides) const {
  ModelSpec spec = overrides.model != nullptr ? *overrides.model : options_.model;
  if (spec.backend == ModelSpec::Backend::kAuto) {
    // kAuto picks factorised iff every feature is single-attribute, which is
    // statically certain unless a multi-attribute auxiliary is registered
    // (intercept, main-effect, custom and single-join auxiliary features all
    // bind one attribute). Canonicalizing here keeps the cache key and the
    // response echo equal to what the fit stage really does.
    bool multi_attribute = false;
    for (const AuxiliarySpec& aux : auxiliaries_) {
      if (aux.join_attrs.size() > 1) multi_attribute = true;
    }
    if (!multi_attribute) spec.backend = ModelSpec::Backend::kFactorized;
  }
  return spec;
}

Recommendation Engine::RecommendDrillDown(const Complaint& complaint) {
  std::vector<Recommendation> batch = RecommendBatch(std::span<const Complaint>(&complaint, 1));
  return std::move(batch.front());
}

std::vector<Recommendation> Engine::RecommendBatch(std::span<const Complaint> complaints,
                                                   const BatchOverrides& overrides,
                                                   BatchTiming* timing) {
  if (timing != nullptr) *timing = BatchTiming();
  if (complaints.empty()) return {};  // nothing to plan — skip the cache pass
  Timer wall_timer;

  REPTILE_CHECK_GE(overrides.num_threads, 0);
  REPTILE_CHECK_GE(overrides.top_k, 0);
  int num_threads = overrides.num_threads > 0 ? overrides.num_threads : options_.num_threads;
  if (num_threads == 0) num_threads = ThreadPool::DefaultThreads();
  const int top_k = overrides.top_k > 0 ? overrides.top_k : options_.top_k;
  // One resolved ModelSpec for the whole call: per-call override or engine
  // option, backend canonicalized.
  const ModelSpec spec = EffectiveModelSpec(overrides);
  const std::vector<AggFn>& extra_stats = spec.extra_repair_stats;
  // Every width above 1 fans out over the one process-wide
  // SharedThreadPool(), so N concurrent sessions cost one set of workers,
  // not N, and no request's width starts threads of its own. Concurrent
  // ParallelFor calls on a pool are safe (per-call latches); the engine's
  // own tasks never submit to the pool they run on, so sharing cannot
  // deadlock. Results are written by index, so the width never changes a
  // response.
  ThreadPool* pool = num_threads > 1 ? SharedThreadPool() : nullptr;

  drill_state_.BeginInvocation();

  // Stage spans for the request trace: start offsets are captured on this
  // (coordinating) thread at each stage boundary — the fan-outs inside a
  // stage belong to that stage's span. Null trace = no recording at all.
  TraceContext* trace = overrides.trace;
  const double plan_start = trace != nullptr ? trace->ElapsedSeconds() : 0.0;

  // --- Plan stage: one shared plan per drillable hierarchy. The drill-down
  // aggregates every plan will read are prefetched first (resident entries
  // are pinned on this thread, only absent ones fan out to builds), after
  // which plan assembly only reads the pins and the plans themselves
  // assemble concurrently. ---
  std::vector<int> drillable;
  for (int h = 0; h < dataset_->num_hierarchies(); ++h) {
    if (drill_state_.CanDrill(h)) drillable.push_back(h);
  }
  std::vector<std::pair<int, int>> aggregate_keys;
  for (int h : drillable) aggregate_keys.emplace_back(h, drill_state_.depth(h) + 1);
  for (int k = 0; k < dataset_->num_hierarchies(); ++k) {
    if (drill_state_.depth(k) == 0) continue;
    // A committed-depth entry is read only by the plans of *other*
    // hierarchies (BuildCandidatePlan skips k == h), so don't build entries
    // nothing will read — which matters under kStatic, where every build is
    // from scratch.
    bool read_by_some_plan =
        drillable.size() > 1 || (drillable.size() == 1 && drillable[0] != k);
    if (read_by_some_plan) aggregate_keys.emplace_back(k, drill_state_.depth(k));
  }
  std::map<std::pair<int, int>, double> aggregate_build_seconds =
      drill_state_.Prefetch(aggregate_keys, pool);

  std::vector<std::unique_ptr<CandidatePlan>> plans =
      ParallelMap<std::unique_ptr<CandidatePlan>>(
          pool, static_cast<int64_t>(drillable.size()),
          [&](int64_t i) { return BuildCandidatePlan(drillable[static_cast<size_t>(i)]); });
  for (std::unique_ptr<CandidatePlan>& plan : plans) {
    // A plan's build cost includes its candidate-depth aggregate build (the
    // committed-depth entries are shared across plans and invocations and
    // charged to none in particular — under kCacheDynamic they are usually
    // cache hits anyway).
    auto it = aggregate_build_seconds.find(
        std::make_pair(plan->hierarchy, drill_state_.depth(plan->hierarchy) + 1));
    if (it != aggregate_build_seconds.end()) plan->build_seconds += it->second;
  }
  stats_.plans_built += static_cast<int64_t>(plans.size());
  if (trace != nullptr) {
    trace->AddSpan("plan", plan_start, trace->ElapsedSeconds() - plan_start,
                   "plans=" + std::to_string(plans.size()));
  }
  const double fit_start = trace != nullptr ? trace->ElapsedSeconds() : 0.0;
  const int64_t trained_before = stats_.models_trained;
  const int64_t cache_hits_before = stats_.fit_cache_hits;

  // --- Execute stage (a): group statistics, one task per (plan, measure),
  // read through the group-statistics cache: a resident entry is a lookup,
  // a missing one is one GroupBy over the whole table plus each group's
  // matrix row, built once however many batches race on it (the build
  // submits nothing to the pool). Map slots are inserted sequentially here;
  // the tasks only assign into their own pre-inserted slot. ---
  struct StatTask {
    CandidatePlan* plan;
    int measure_column;
  };
  std::vector<StatTask> stat_tasks;
  for (std::unique_ptr<CandidatePlan>& plan : plans) {
    for (const Complaint& complaint : complaints) {
      int measure = complaint.measure_column;
      if (plan->stats.emplace(measure, nullptr).second) {
        stat_tasks.push_back(StatTask{plan.get(), measure});
      }
    }
  }
  std::vector<char> stats_built(stat_tasks.size(), 0);
  ParallelFor(pool, static_cast<int64_t>(stat_tasks.size()), [&](int64_t i) {
    const StatTask& task = stat_tasks[static_cast<size_t>(i)];
    const CandidatePlan& plan = *task.plan;
    auto [entry, built] =
        stats_cache_->GetOrBuild(StatsCacheKey(plan.hierarchy, task.measure_column), [&] {
          GroupStats stats;
          stats.groups = GroupBy(dataset_->table(), plan.ctx.key_columns, task.measure_column);
          stats.rows = MatrixRowsOf(plan.layout, plan.ctx, stats.groups);
          return stats;
        });
    task.plan->stats.find(task.measure_column)->second = std::move(entry);
    stats_built[static_cast<size_t>(i)] = built ? 1 : 0;
  });

  // --- Execute stage (b): model fits, one task per distinct (plan, measure,
  // primitive) triple. The work list is assembled in complaint order, so the
  // "owner" of each fit — the first complaint to require it, which its
  // train_seconds are charged to — matches what lazy sequential training
  // charged. Each task first consults the process-shared fitted-model cache
  // (when the spec allows): a hit reuses the very vector some earlier call —
  // this session's or another's — trained, a miss fits under the cache's
  // single-flight latch so concurrent sessions racing on one key train once
  // between them. Results land by task index and are installed into the
  // plans sequentially afterwards. ---
  struct FitTask {
    CandidatePlan* plan;
    size_t plan_index;
    int measure_column;
    AggFn primitive;
    size_t owner_complaint;
  };
  std::vector<FitTask> fit_tasks;
  for (size_t c = 0; c < complaints.size(); ++c) {
    std::vector<AggFn> primitives = ComplaintPrimitives(complaints[c], extra_stats);
    for (size_t p = 0; p < plans.size(); ++p) {
      for (AggFn primitive : primitives) {
        auto key = std::make_pair(complaints[c].measure_column, primitive);
        if (plans[p]->fits.find(key) != plans[p]->fits.end()) continue;
        plans[p]->fits.emplace(key, nullptr);  // dedup slot; installed below
        fit_tasks.push_back(
            FitTask{plans[p].get(), p, complaints[c].measure_column, primitive, c});
      }
    }
  }
  struct FitOutcome {
    std::shared_ptr<const FittedModel> model;
    bool performed = false;  // this call ran the fit (vs a cache hit)
  };
  const bool use_fit_cache = model_cache_ != nullptr && spec.fit_cache;
  std::vector<FitOutcome> outcomes =
      ParallelMap<FitOutcome>(pool, static_cast<int64_t>(fit_tasks.size()), [&](int64_t i) {
        const FitTask& task = fit_tasks[static_cast<size_t>(i)];
        auto run = [&] {
          return FitPrimitive(*task.plan, task.measure_column, task.primitive, spec);
        };
        if (!use_fit_cache) {
          return FitOutcome{std::make_shared<const FittedModel>(run()), true};
        }
        auto [model, performed] = model_cache_->GetOrBuild(
            FitCacheKey(spec, task.plan->hierarchy, task.measure_column, task.primitive),
            run);
        return FitOutcome{std::move(model), performed};
      });

  // Install and account sequentially: plan->fits mutation, the engine
  // counters, and the deterministic cost attribution — each fit's duration
  // charged to the (owner complaint, plan) cell that first required it;
  // cache hits charge nothing, their work happened in some earlier call.
  std::vector<double> charged_train(complaints.size() * plans.size(), 0.0);
  double train_seconds_sum = 0.0;
  int em_iterations_run = 0;
  for (size_t i = 0; i < fit_tasks.size(); ++i) {
    const FitTask& task = fit_tasks[i];
    FitOutcome& outcome = outcomes[i];
    if (outcome.performed) {
      stats_.models_trained += 1;
      double seconds = outcome.model->fit_seconds;
      charged_train[task.owner_complaint * plans.size() + task.plan_index] += seconds;
      train_seconds_sum += seconds;
    } else {
      stats_.fit_cache_hits += 1;
    }
    // The realized EM count is a property of the model, not of who fitted
    // it, so hits and fresh fits contribute alike — warm calls echo the same
    // number as the cold call that trained the model.
    em_iterations_run = std::max(em_iterations_run, outcome.model->em_iterations_run);
    task.plan->fits.find(std::make_pair(task.measure_column, task.primitive))->second =
        std::move(outcome.model);
  }
  const size_t table_rows = dataset_->table().num_rows();
  if (trace != nullptr) {
    // The span covers group statistics + fits + install; its detail is the
    // cache outcome the warm-vs-cold benchmarks care about, plus the work
    // of the statistics passes this call ran (a cache hit adds nothing):
    // table rows read and non-empty groups made.
    size_t stat_rows = 0;
    size_t stat_groups = 0;
    for (size_t i = 0; i < stat_tasks.size(); ++i) {
      if (stats_built[i] == 0) continue;
      stat_rows += table_rows;
      stat_groups += stat_tasks[i].plan->stats.at(stat_tasks[i].measure_column)
                         ->groups.num_groups();
    }
    trace->AddSpan("fit", fit_start, trace->ElapsedSeconds() - fit_start,
                   "hits=" + std::to_string(stats_.fit_cache_hits - cache_hits_before) +
                       " misses=" + std::to_string(stats_.models_trained - trained_before) +
                       " rows=" + std::to_string(stat_rows) +
                       " groups=" + std::to_string(stat_groups));
  }
  const double rank_start = trace != nullptr ? trace->ElapsedSeconds() : 0.0;

  // --- Execute stage (c): ranking, one task per (complaint, plan) pair.
  // Every task reads the now-immutable plans; results land by index and are
  // merged in complaint order, so output order is scheduling-independent. ---
  std::vector<size_t> rank_rows(complaints.size() * plans.size(), 0);
  std::vector<HierarchyRecommendation> cells =
      ParallelMap<HierarchyRecommendation>(
          pool, static_cast<int64_t>(complaints.size() * plans.size()), [&](int64_t i) {
            size_t c = static_cast<size_t>(i) / plans.size();
            size_t p = static_cast<size_t>(i) % plans.size();
            return ExecuteComplaint(*plans[p], complaints[c], top_k, extra_stats,
                                    charged_train[static_cast<size_t>(i)],
                                    /*charge_build=*/c == 0, &rank_rows[static_cast<size_t>(i)]);
          });
  stats_.complaints_evaluated += static_cast<int64_t>(complaints.size());

  std::vector<Recommendation> out;
  out.reserve(complaints.size());
  for (size_t c = 0; c < complaints.size(); ++c) {
    Recommendation rec;
    double best = std::numeric_limits<double>::infinity();
    for (size_t p = 0; p < plans.size(); ++p) {
      rec.candidates.push_back(std::move(cells[c * plans.size() + p]));
      const HierarchyRecommendation& cand = rec.candidates.back();
      if (!cand.top_groups.empty() && cand.best_score < best) {
        best = cand.best_score;
        rec.best_index = static_cast<int>(rec.candidates.size()) - 1;
      }
    }
    out.push_back(std::move(rec));
  }
  if (trace != nullptr) {
    // Table rows read by the cells whose filter had to group rows; a cell
    // that selected its siblings from the group statistics reads none.
    size_t scanned = 0;
    for (size_t rows : rank_rows) scanned += rows;
    trace->AddSpan("rank", rank_start, trace->ElapsedSeconds() - rank_start,
                   "rows=" + std::to_string(scanned));
  }
  if (timing != nullptr) {
    timing->train_seconds = train_seconds_sum;
    timing->wall_seconds = wall_timer.Seconds();
    timing->em_iterations_run = em_iterations_run;
  }
  return out;
}

void Engine::CommitDrillDown(int hierarchy) { drill_state_.Commit(hierarchy); }

std::string Engine::StatsCacheKey(int hierarchy, int measure_column) const {
  // The full committed-depth vector (every committed hierarchy's columns
  // are key columns) and the plan coordinates. The candidate depth is
  // committed[hierarchy]+1, so it needs no separate component.
  std::string key = "c:";
  for (int h = 0; h < dataset_->num_hierarchies(); ++h) {
    if (h > 0) key += ',';
    key += std::to_string(drill_state_.depth(h));
  }
  key += "|h" + std::to_string(hierarchy);
  key += "|m" + std::to_string(measure_column);
  return key;
}

std::string Engine::FitCacheKey(const ModelSpec& spec, int hierarchy, int measure_column,
                                AggFn primitive) const {
  // Everything a fitted model depends on, given the immutable prepared
  // dataset the cache hangs off: the feature-registration partition, the
  // canonical spec (which carries the concrete random-effect policy — the
  // caller always keys on EffectiveModelSpec), the group statistics the fit
  // reads, and the primitive.
  std::string key = feature_token_;
  key += '|';
  key += spec.CacheKey();
  key += '|';
  key += StatsCacheKey(hierarchy, measure_column);
  key += "|p";
  key += AggFnName(primitive);
  // Version component last, and only for appended versions (v1's token is
  // empty), so v1 keys — the spelling snapshots persist — stay unchanged.
  AppendModelKeyVersion(&key, version_token_);
  return key;
}

std::unique_ptr<Engine::CandidatePlan> Engine::BuildCandidatePlan(int h) const {
  Timer build_timer;
  auto plan = std::make_unique<CandidatePlan>();
  plan->hierarchy = h;
  int new_depth = drill_state_.depth(h) + 1;
  plan->attribute = dataset_->hierarchy(h).attributes[static_cast<size_t>(new_depth) - 1];

  // The intercept tree and its (trivial) aggregates are owned by the plan:
  // immutable after this point and never shared across plans or engines.
  plan->intercept_tree = FTree::Singleton();
  plan->intercept_locals = LocalAggregates(&plan->intercept_tree);

  // Assemble the trees: intercept, committed hierarchies, candidate last (the
  // attribute-order requirement of Section 3.4). Tree/aggregate construction
  // went through the drill-down cache prefetch (Section 4.4); Peek is a pure
  // read here.
  CandidateContext& ctx = plan->ctx;
  ctx.trees.push_back(&plan->intercept_tree);
  ctx.locals.push_back(&plan->intercept_locals);
  ctx.tree_columns.push_back({});
  for (int k = 0; k < dataset_->num_hierarchies(); ++k) {
    if (k == h || drill_state_.depth(k) == 0) continue;
    const HierarchyAggregates& agg = drill_state_.Peek(k, drill_state_.depth(k));
    ctx.trees.push_back(agg.tree.get());
    ctx.locals.push_back(agg.locals.get());
    ctx.tree_columns.push_back(dataset_->HierarchyColumns(k, drill_state_.depth(k)));
  }
  const HierarchyAggregates& cand_agg = drill_state_.Peek(h, new_depth);
  ctx.trees.push_back(cand_agg.tree.get());
  ctx.locals.push_back(cand_agg.locals.get());
  ctx.tree_columns.push_back(dataset_->HierarchyColumns(h, new_depth));
  for (size_t k = 1; k < ctx.tree_columns.size(); ++k) {
    ctx.key_columns.insert(ctx.key_columns.end(), ctx.tree_columns[k].begin(),
                           ctx.tree_columns[k].end());
  }

  // Reference matrix for layout queries (per-primitive matrices share it).
  for (const FTree* t : ctx.trees) plan->layout.AddTree(t);

  plan->build_seconds = build_timer.Seconds();
  return plan;
}

FittedModel Engine::FitPrimitive(const CandidatePlan& plan, int measure_column,
                                 AggFn primitive, const ModelSpec& spec) const {
  const Table& table = dataset_->table();
  const CandidateContext& ctx = plan.ctx;

  // Group statistics for this measure, computed by the batch's statistics
  // stage: the non-empty groups (featurization reads them, y is built from
  // them below) and their matrix rows. Shared, read-only, across every
  // primitive and concurrent fit.
  auto stats_it = plan.stats.find(measure_column);
  REPTILE_CHECK(stats_it != plan.stats.end() && stats_it->second != nullptr);
  const GroupByResult& groups = stats_it->second->groups;
  const std::vector<int64_t>& group_rows = stats_it->second->rows;

  FactorizedMatrix fm;
  for (const FTree* t : ctx.trees) fm.AddTree(t);

  // Intercept.
  std::vector<std::string> column_names;
  {
    FeatureColumn intercept;
    intercept.name = "intercept";
    intercept.attr = AttrId{0, 0};
    intercept.value_map = {1.0};
    fm.AddColumn(std::move(intercept));
    column_names.push_back("intercept");
  }
  // Default main-effect features for every drilled attribute (§3.3.1).
  // An attribute whose every value identifies at most one group would make
  // the median-of-Y feature the target itself (pure leakage: the model
  // would interpolate the corrupted group and the repair would be a
  // no-op), so such attributes are skipped and the model relies on the
  // other attributes and the auxiliary signals.
  for (size_t k = 1; k < ctx.tree_columns.size(); ++k) {
    for (size_t l = 0; l < ctx.tree_columns[k].size(); ++l) {
      int column = ctx.tree_columns[k][l];
      int flat = fm.FlatAttrIndex(AttrId{static_cast<int>(k), static_cast<int>(l)});
      size_t key_pos = static_cast<size_t>(flat) - 1;
      {
        std::vector<int32_t> groups_per_code(
            static_cast<size_t>(table.dict(column).size()), 0);
        bool repeated = false;
        for (size_t g = 0; g < groups.num_groups() && !repeated; ++g) {
          int32_t code = groups.key(g, key_pos);
          if (++groups_per_code[static_cast<size_t>(code)] >= 2) repeated = true;
        }
        if (!repeated) continue;
      }
      FeatureColumn fc;
      fc.name = table.column_name(column);
      fc.attr = AttrId{static_cast<int>(k), static_cast<int>(l)};
      fc.value_map = MainEffectMap(groups, key_pos, primitive, table.dict(column).size());
      column_names.push_back(fc.name);
      fm.AddColumn(std::move(fc));
    }
  }
  // Auxiliary datasets (§3.3.2, Appendix H): applicable once every join
  // attribute has been drilled.
  for (const AuxiliarySpec& aux : auxiliaries_) {
    std::vector<AttrId> attrs;
    std::vector<int> base_columns;
    bool applicable = true;
    for (const std::string& join_attr : aux.join_attrs) {
      int base_column = table.ColumnIndex(join_attr);
      std::optional<AttrId> attr = FindDrilledAttr(ctx, base_column);
      if (!attr.has_value()) {
        applicable = false;
        break;
      }
      attrs.push_back(*attr);
      base_columns.push_back(base_column);
    }
    if (!applicable) continue;
    int measure = aux.table->ColumnIndex(aux.measure);
    FeatureColumn fc;
    fc.name = aux.name;
    if (attrs.size() == 1) {
      int aux_join = aux.table->ColumnIndex(aux.join_attrs[0]);
      std::vector<int32_t> translated = TranslateCodes(
          aux.table->dict(aux_join), table.dict(base_columns[0]), aux.table->dim_codes(aux_join));
      fc.attr = attrs[0];
      fc.value_map = AuxiliaryMapFromCodes(translated, aux.table->measure(measure),
                                           table.dict(base_columns[0]).size(), aux.normalize);
    } else {
      fc.is_multi = true;
      fc.attrs = attrs;
      std::vector<std::vector<int32_t>> translated(attrs.size());
      std::vector<const std::vector<int32_t>*> code_ptrs;
      for (size_t j = 0; j < attrs.size(); ++j) {
        int aux_join = aux.table->ColumnIndex(aux.join_attrs[j]);
        translated[j] = TranslateCodes(aux.table->dict(aux_join), table.dict(base_columns[j]),
                                       aux.table->dim_codes(aux_join));
        code_ptrs.push_back(&translated[j]);
      }
      fc.multi_map =
          MultiAuxiliaryMapFromCodes(code_ptrs, aux.table->measure(measure), aux.normalize);
      fc.missing_value = 0.0;
    }
    fm.AddColumn(std::move(fc));
    column_names.push_back(aux.name);
  }
  // Custom features (§3.3.3).
  for (const CustomFeatureSpec& custom : custom_features_) {
    int base_column = table.ColumnIndex(custom.attr);
    std::optional<AttrId> attr = FindDrilledAttr(ctx, base_column);
    if (!attr.has_value()) continue;
    int flat = fm.FlatAttrIndex(*attr);
    size_t key_pos = static_cast<size_t>(flat) - 1;
    int32_t card = table.dict(base_column).size();
    AttrValueStats stats = CollectAttrValueStats(groups, key_pos, primitive, card);
    FeatureColumn fc;
    fc.name = custom.name;
    fc.attr = *attr;
    fc.value_map = custom.fn(stats);
    REPTILE_CHECK_EQ(static_cast<int32_t>(fc.value_map.size()), card)
        << "custom feature " << custom.name << " returned wrong cardinality";
    fm.AddColumn(std::move(fc));
    column_names.push_back(custom.name);
  }

  // Random-effect columns (§3.3.4): intercept-only by default, or every
  // non-excluded feature.
  std::vector<int> z_cols;
  if (spec.random_effects == ModelSpec::RandomPolicy::kIntercepts) {
    z_cols.push_back(0);
  } else {
    for (int c = 0; c < fm.num_cols(); ++c) {
      bool excluded = false;
      for (const std::string& name : z_exclusions_) {
        if (column_names[static_cast<size_t>(c)] == name) excluded = true;
      }
      if (!excluded) z_cols.push_back(c);
    }
  }

  // y for this primitive over all parallel groups (empty groups included —
  // the worst case of Section 5.1.4). An empty group's moments are zero, and
  // Moments::Value of zero moments is +0.0 for every primitive, so only the
  // non-empty groups are written.
  std::vector<double> y(static_cast<size_t>(fm.num_rows()), 0.0);
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    y[static_cast<size_t>(group_rows[g])] = groups.stats(g).Value(primitive);
  }

  // Backend selection and training. The timer covers the model fit only
  // (matching the pre-batching train_seconds semantics); group statistics
  // and feature-matrix assembly above count toward total_seconds.
  Timer train_timer;
  bool use_factorized;
  switch (spec.backend) {
    case ModelSpec::Backend::kFactorized:
      REPTILE_CHECK(fm.AllSingleAttribute())
          << "factorised backend requires single-attribute features";
      use_factorized = true;
      break;
    case ModelSpec::Backend::kDense:
      use_factorized = false;
      break;
    case ModelSpec::Backend::kAuto:
    default:
      use_factorized = fm.AllSingleAttribute();
      break;
  }
  MultiLevelOptions em;
  em.em_iters = spec.em_iterations;
  em.tolerance = spec.em_tolerance;

  FittedModel fit;
  DecomposedAggregates agg(&fm, ctx.locals);
  if (spec.kind == ModelSpec::Kind::kMultiLevel) {
    if (use_factorized) {
      FactorizedEmBackend backend(&fm, &agg, z_cols);
      MultiLevelModel model = TrainMultiLevel(&backend, y, em);
      fit.fitted = std::move(model.fitted);
      fit.em_iterations_run = model.iterations_run;
    } else {
      Matrix x;
      MultiLevelModel model = TrainMultiLevelDense(fm, y, z_cols, em, &x);
      fit.fitted = std::move(model.fitted);
      fit.em_iterations_run = model.iterations_run;
    }
  } else {
    if (use_factorized) {
      LinearModel model = TrainLinearFactorized(fm, agg, y);
      fit.fitted = FactorizedVecRightMultiply(fm, model.beta);
    } else {
      Matrix x = MaterializeMatrix(fm);
      LinearModel model = TrainLinearDense(x, y);
      fit.fitted.assign(static_cast<size_t>(fm.num_rows()), 0.0);
      for (size_t r = 0; r < x.rows(); ++r) {
        double acc = 0.0;
        for (size_t c = 0; c < x.cols(); ++c) acc += x(r, c) * model.beta[c];
        fit.fitted[r] = acc;
      }
    }
  }

  fit.fit_seconds = train_timer.Seconds();
  return fit;
}

HierarchyRecommendation Engine::ExecuteComplaint(const CandidatePlan& plan,
                                                 const Complaint& complaint, int top_k,
                                                 const std::vector<AggFn>& extra_stats,
                                                 double charged_train_seconds, bool charge_build,
                                                 size_t* rows_scanned) const {
  Timer rank_timer;
  const Table& table = dataset_->table();
  const CandidateContext& ctx = plan.ctx;
  HierarchyRecommendation rec;
  rec.hierarchy = plan.hierarchy;
  rec.attribute = plan.attribute;
  rec.key_columns = ctx.key_columns;
  rec.model_rows = plan.layout.num_rows();
  rec.model_clusters = plan.layout.num_clusters();
  rec.train_seconds = charged_train_seconds;

  // The complaint tuple's siblings. A filter on key columns matches whole
  // groups, so they are selected from the plan's statistics — the same
  // groups, in the same first-seen order, with the same moments as grouping
  // the matching rows. Any other filter groups the matching rows.
  const GroupStats& stats = *plan.stats.at(complaint.measure_column);
  const GroupByResult* groups = &stats.groups;
  std::span<const int64_t> group_rows = stats.rows;
  std::optional<std::vector<size_t>> siblings =
      SelectGroups(stats.groups, ctx.key_columns, complaint.filter);
  GroupStats scanned;
  *rows_scanned = 0;
  if (!siblings.has_value()) {
    scanned.groups = GroupBy(table, ctx.key_columns, complaint.measure_column, complaint.filter);
    scanned.rows = MatrixRowsOf(plan.layout, ctx, scanned.groups);
    *rows_scanned = table.num_rows();
    groups = &scanned.groups;
    group_rows = scanned.rows;
    siblings.emplace(scanned.groups.num_groups());
    std::iota(siblings->begin(), siblings->end(), size_t{0});
  }

  // Per primitive statistic: fitted model values, trained by the batch's fit
  // stage and shared read-only by every complaint on this plan.
  std::vector<PrimitiveFit> fits;
  for (AggFn primitive : ComplaintPrimitives(complaint, extra_stats)) {
    auto fit_it = plan.fits.find(std::make_pair(complaint.measure_column, primitive));
    REPTILE_CHECK(fit_it != plan.fits.end() && fit_it->second != nullptr)
        << "primitive model missing from batch fit stage";
    fits.push_back(PrimitiveFit{primitive, &fit_it->second->fitted});
  }

  // Repair each sibling and rank by the repaired complaint value.
  RankedGroups ranked = RankGroups(*groups, group_rows, *siblings, fits, complaint, top_k, table,
                                   ctx.key_columns);
  rec.best_score = ranked.best_score;
  rec.top_groups = std::move(ranked.top);
  // total_seconds = this complaint's own ranking work plus its deterministic
  // share of the shared costs (fits it was first to require; the plan build,
  // charged to the batch's first complaint). All three are per-task sums, so
  // the value is meaningful under concurrency.
  rec.total_seconds = rank_timer.Seconds() + charged_train_seconds;
  if (charge_build) rec.total_seconds += plan.build_seconds;
  return rec;
}

}  // namespace reptile
