// The ModelSpec API and the process-shared fitted-model cache
// (factor/model_cache.h): single-flight semantics, zero-fit warm sessions
// with byte-identical responses, exactly-one-fit-per-key under concurrency,
// the factorised-vs-dense backend contract under the new API (fig08 panel),
// feature-registration key partitioning (the auxiliary regression), and
// plan-stage ModelSpec validation.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "datagen/panel_gen.h"
#include "factor/model_cache.h"
#include "gtest/gtest.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

constexpr int kDistricts = 4;
constexpr int kVillages = 3;
constexpr int kYears = 4;

Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = kDistricts;
  spec.villages_per_district = kVillages;
  spec.years = kYears;
  spec.rows_per_group = 3;
  return MakeSeverityPanel(spec);
}

DatasetHandle PreparePanel() {
  Result<DatasetHandle> handle = PreparedDataset::Prepare(MakePanel());
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return std::move(handle).value();
}

Session OpenPanelSession(const DatasetHandle& handle, const ExploreRequest& options = {}) {
  Result<Session> session = Session::Open(handle, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  Status committed = session->Commit("time");
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  return std::move(session).value();
}

// The fig08 complaint panel: one STD complaint per year.
std::vector<ComplaintSpec> PanelComplaints() {
  std::vector<ComplaintSpec> complaints;
  for (int y = 0; y < kYears; ++y) {
    complaints.push_back(
        ComplaintSpec::TooHigh("std", "severity").Where("year", "y" + std::to_string(y)));
  }
  return complaints;
}

// Deterministic serialisation: timing and counter fields zeroed, mirroring
// the wire's zero_timings semantics.
std::string TimelessJson(BatchExploreResponse batch) {
  batch.train_seconds = 0.0;
  batch.wall_seconds = 0.0;
  batch.models_trained = 0;
  batch.fit_cache_hits = 0;
  for (ExploreResponse& response : batch.responses) {
    for (HierarchyResponse& candidate : response.candidates) {
      candidate.train_seconds = 0.0;
      candidate.total_seconds = 0.0;
    }
  }
  return batch.ToJson();
}

// ---- SharedFittedModelCache unit tests -------------------------------------

TEST(SharedFittedModelCache, GetOrFitCachesAndCounts) {
  SharedFittedModelCache cache;
  int fit_calls = 0;
  auto fit = [&] {
    ++fit_calls;
    return FittedModel{{1.0, 2.0, 3.0}, 0.5};
  };

  auto [first, first_performed] = cache.GetOrBuild("k1", fit);
  EXPECT_TRUE(first_performed);
  EXPECT_EQ(fit_calls, 1);
  EXPECT_EQ(first->fitted, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(first->fit_seconds, 0.5);

  auto [second, second_performed] = cache.GetOrBuild("k1", fit);
  EXPECT_FALSE(second_performed);
  EXPECT_EQ(fit_calls, 1);
  EXPECT_EQ(second.get(), first.get());  // the very same model object

  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.misses(), fit_calls);  // a miss is one fit
  EXPECT_EQ(cache.Keys(), std::vector<std::string>{"k1"});

  EXPECT_EQ(cache.Peek("k1").get(), first.get());
  EXPECT_EQ(cache.Peek("absent"), nullptr);
}

TEST(SharedFittedModelCache, SingleFlightUnderContention) {
  SharedFittedModelCache cache;
  std::atomic<int> fit_calls{0};
  std::atomic<int> performed{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<FittedModelPtr> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto [model, did_fit] = cache.GetOrBuild("contended", [&] {
        fit_calls.fetch_add(1);
        // Widen the race window so waiters really block on the in-flight fit.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return FittedModel{{42.0}, 0.0};
      });
      if (did_fit) performed.fetch_add(1);
      results[static_cast<size_t>(t)] = model;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(fit_calls.load(), 1);  // exactly one fit, process-wide
  EXPECT_EQ(performed.load(), 1);
  EXPECT_EQ(cache.misses(), 1);  // a miss is one fit
  EXPECT_EQ(cache.hits(), kThreads - 1);
  for (const FittedModelPtr& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result.get(), results[0].get());
  }
}

TEST(SharedFittedModelCache, ThrowingFitIsRetriable) {
  SharedFittedModelCache cache;
  EXPECT_THROW(cache.GetOrBuild("boom",
                              []() -> FittedModel { throw std::runtime_error("fit failed"); }),
               std::runtime_error);
  EXPECT_EQ(cache.entries(), 0);  // key released for retry
  auto [model, performed] = cache.GetOrBuild("boom", [] { return FittedModel{{1.0}, 0.0}; });
  EXPECT_TRUE(performed);
  EXPECT_EQ(model->fitted, std::vector<double>{1.0});
}

// ---- Warm sessions: zero fits, byte-identical responses --------------------

// The acceptance criterion: a warm session — same dataset, same committed
// depths, default ModelSpec — performs ZERO model fits while its responses
// stay byte-identical to the cold session's.
TEST(ModelCache, WarmSessionPerformsZeroFits) {
  DatasetHandle handle = PreparePanel();
  std::vector<ComplaintSpec> complaints = PanelComplaints();

  Session cold = OpenPanelSession(handle);
  Result<BatchExploreResponse> cold_batch =
      cold.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(cold_batch.ok()) << cold_batch.status().ToString();
  EXPECT_GT(cold.models_trained(), 0);
  EXPECT_EQ(cold_batch->models_trained, cold.models_trained());
  const int64_t fits_after_cold = handle->model_cache_fits();
  EXPECT_EQ(fits_after_cold, cold.models_trained());

  Session warm = OpenPanelSession(handle);
  Result<BatchExploreResponse> warm_batch =
      warm.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(warm_batch.ok()) << warm_batch.status().ToString();
  EXPECT_EQ(warm.models_trained(), 0);
  EXPECT_EQ(warm_batch->models_trained, 0);
  EXPECT_EQ(warm_batch->fit_cache_hits, cold.models_trained());
  EXPECT_EQ(handle->model_cache_fits(), fits_after_cold);  // nothing retrained
  EXPECT_EQ(TimelessJson(*warm_batch), TimelessJson(*cold_batch));

  // The SAME session's second identical call is warm too.
  Result<BatchExploreResponse> again =
      cold.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->models_trained, 0);
  EXPECT_EQ(TimelessJson(*again), TimelessJson(*cold_batch));
}

// Opting out of the cache retrains every call and leaves the shared cache
// untouched.
TEST(ModelCache, FitCacheOptOutRetrains) {
  DatasetHandle handle = PreparePanel();
  Session no_cache =
      OpenPanelSession(handle, ExploreRequest().Model(ModelSpec().FitCache(false)));
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");
  Result<ExploreResponse> first = no_cache.Recommend(complaint);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  int64_t after_first = no_cache.models_trained();
  EXPECT_GT(after_first, 0);
  EXPECT_EQ(handle->model_cache_entries(), 0);
  EXPECT_FALSE(first->model.fit_cache);

  Result<ExploreResponse> second = no_cache.Recommend(complaint);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(no_cache.models_trained(), 2 * after_first);  // refit, not reused
  EXPECT_EQ(no_cache.fit_cache_hits(), 0);
}

// Drill state partitions keys: after committing another hierarchy the
// feature matrix changes, so nothing stale is reused and new keys appear.
TEST(ModelCache, CommittedDepthsPartitionKeys) {
  DatasetHandle handle = PreparePanel();
  Session session = OpenPanelSession(handle);
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");
  ASSERT_TRUE(session.Recommend(complaint).ok());
  int64_t fits_before = session.models_trained();
  EXPECT_GT(fits_before, 0);

  ASSERT_TRUE(session.Commit("geo").ok());
  ASSERT_TRUE(session.Recommend(complaint).ok());
  EXPECT_GT(session.models_trained(), fits_before);  // new drill state, new fits
}

// ---- Concurrency: one fit per key across racing sessions -------------------

// The second half of the acceptance criterion: N sessions racing on the same
// keys perform exactly one fit per key BETWEEN them (single-flight), and
// every racer's responses equal the single-threaded golden bytes.
TEST(ModelCache, ConcurrentSessionsFitOncePerKey) {
  DatasetHandle handle = PreparePanel();
  std::vector<ComplaintSpec> complaints = PanelComplaints();

  // Golden bytes from a separate, identically prepared dataset so the shared
  // cache under test stays cold until the race starts.
  std::string golden;
  int64_t keys_per_call = 0;
  {
    DatasetHandle golden_handle = PreparePanel();
    Session golden_session = OpenPanelSession(golden_handle);
    Result<BatchExploreResponse> batch =
        golden_session.RecommendAll(std::span<const ComplaintSpec>(complaints));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    golden = TimelessJson(*batch);
    keys_per_call = batch->models_trained;
    ASSERT_GT(keys_per_call, 0);
  }

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> bodies(kThreads);
  std::vector<int64_t> trained(kThreads, -1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session = OpenPanelSession(handle);
      Result<BatchExploreResponse> batch =
          session.RecommendAll(std::span<const ComplaintSpec>(complaints));
      if (!batch.ok()) return;  // bodies[t] stays empty -> assert below fails
      bodies[static_cast<size_t>(t)] = TimelessJson(*batch);
      trained[static_cast<size_t>(t)] = session.models_trained();
    });
  }
  for (std::thread& thread : threads) thread.join();

  int64_t total_trained = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bodies[static_cast<size_t>(t)], golden) << "racer " << t;
    ASSERT_GE(trained[static_cast<size_t>(t)], 0);
    total_trained += trained[static_cast<size_t>(t)];
  }
  // Exactly one fit per key across ALL racers, however the race interleaved.
  EXPECT_EQ(total_trained, keys_per_call);
  EXPECT_EQ(handle->model_cache_fits(), keys_per_call);
  EXPECT_EQ(handle->model_cache_entries(), keys_per_call);
}

// ---- Backend contract under the new API (fig08 panel) ----------------------

// The paper's factorised-vs-dense contract, guarded at the ModelSpec level:
// on a panel where kAuto picks the factorised backend, forcing kDense
// through a per-call ModelSpec must produce identical rankings.
TEST(ModelSpecApi, DenseBackendMatchesAutoFactorizedRankings) {
  DatasetHandle handle = PreparePanel();
  std::vector<ComplaintSpec> complaints = PanelComplaints();

  Session auto_session = OpenPanelSession(handle);
  Result<BatchExploreResponse> factorized =
      auto_session.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(factorized.ok()) << factorized.status().ToString();
  // kAuto resolves to factorised here (every feature single-attribute) and
  // the echo says so.
  ASSERT_FALSE(factorized->responses.empty());
  EXPECT_EQ(factorized->responses[0].model.backend, "factorized");

  Result<BatchExploreResponse> dense = auto_session.RecommendAll(
      std::span<const ComplaintSpec>(complaints),
      BatchOptions().Model(ModelSpec().With(ModelSpec::Backend::kDense)));
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_EQ(dense->responses[0].model.backend, "dense");
  // A different backend is a different cache partition: the dense models
  // were fitted, not served from the factorised entries.
  EXPECT_GT(dense->models_trained, 0);

  ASSERT_EQ(dense->responses.size(), factorized->responses.size());
  for (size_t i = 0; i < factorized->responses.size(); ++i) {
    const ExploreResponse& f = factorized->responses[i];
    const ExploreResponse& d = dense->responses[i];
    EXPECT_EQ(f.best_index, d.best_index);
    ASSERT_EQ(f.candidates.size(), d.candidates.size());
    for (size_t c = 0; c < f.candidates.size(); ++c) {
      EXPECT_EQ(f.candidates[c].hierarchy, d.candidates[c].hierarchy);
      EXPECT_EQ(f.candidates[c].attribute, d.candidates[c].attribute);
      ASSERT_EQ(f.candidates[c].groups.size(), d.candidates[c].groups.size());
      for (size_t g = 0; g < f.candidates[c].groups.size(); ++g) {
        // Identical rankings: same groups in the same order; scores agree to
        // numerical precision (the two backends run the same algebra through
        // different operator orders).
        EXPECT_EQ(f.candidates[c].groups[g].description,
                  d.candidates[c].groups[g].description);
        EXPECT_NEAR(f.candidates[c].groups[g].score, d.candidates[c].groups[g].score, 1e-6);
      }
    }
  }
}

// ---- Feature registrations partition the cache (the bugfix satellite) ------

// Registering an auxiliary must invalidate the session's fitted-model
// lookups: a model fitted WITHOUT the auxiliary must never answer for one
// fitted WITH it — and vice versa, in both directions, without poisoning
// other sessions.
TEST(ModelCache, AuxiliaryRegistrationNeverReusesPreAuxModels) {
  DatasetHandle handle = PreparePanel();
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");

  // Warm the default partition.
  Session plain = OpenPanelSession(handle);
  ASSERT_TRUE(plain.Recommend(complaint).ok());
  int64_t default_fits = plain.models_trained();
  ASSERT_GT(default_fits, 0);

  // A district-keyed auxiliary measure (deterministic contents).
  auto make_aux = [] {
    Table aux;
    int district = aux.AddDimensionColumn("district");
    int budget = aux.AddMeasureColumn("budget");
    for (int d = 0; d < kDistricts; ++d) {
      aux.SetDim(district, "d" + std::to_string(d));
      aux.SetMeasure(budget, 100.0 + 10.0 * d);
      aux.CommitRow();
    }
    return aux;
  };

  Session with_aux = OpenPanelSession(handle);
  {
    AuxiliaryRequest aux;
    aux.name = "budget";
    aux.table = make_aux();
    aux.join_attributes = {"district"};
    aux.measure = "budget";
    ASSERT_TRUE(with_aux.RegisterAuxiliary(std::move(aux)).ok());
  }
  Result<ExploreResponse> aux_response = with_aux.Recommend(complaint);
  ASSERT_TRUE(aux_response.ok()) << aux_response.status().ToString();
  // The regression: the session trained its own models — zero reuse of the
  // pre-auxiliary entries, which describe a different feature matrix.
  EXPECT_EQ(with_aux.models_trained(), default_fits);
  EXPECT_EQ(with_aux.fit_cache_hits(), 0);

  // A second registration re-partitions AGAIN: models fitted with one
  // auxiliary set never answer for another.
  {
    AuxiliaryRequest aux;
    aux.name = "budget2";
    aux.table = make_aux();
    aux.join_attributes = {"district"};
    aux.measure = "budget";
    ASSERT_TRUE(with_aux.RegisterAuxiliary(std::move(aux)).ok());
  }
  int64_t before_second = with_aux.models_trained();
  ASSERT_TRUE(with_aux.Recommend(complaint).ok());
  EXPECT_GT(with_aux.models_trained(), before_second);

  // The default partition is unpoisoned: a fresh plain session is fully warm.
  Session fresh = OpenPanelSession(handle);
  ASSERT_TRUE(fresh.Recommend(complaint).ok());
  EXPECT_EQ(fresh.models_trained(), 0);
}

// Random-effect exclusions re-partition the same way.
TEST(ModelCache, RandomEffectExclusionInvalidatesLookups) {
  DatasetHandle handle = PreparePanel();
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");
  ExploreRequest all_effects = ExploreRequest().Model(ModelSpec().AllRandomEffects());

  Session a = OpenPanelSession(handle, all_effects);
  ASSERT_TRUE(a.Recommend(complaint).ok());
  int64_t base_fits = a.models_trained();
  ASSERT_GT(base_fits, 0);

  Session b = OpenPanelSession(handle, all_effects);
  ASSERT_TRUE(b.ExcludeFromRandomEffects("district").ok());
  ASSERT_TRUE(b.Recommend(complaint).ok());
  EXPECT_EQ(b.models_trained(), base_fits);  // own fits, no reuse
  EXPECT_EQ(b.fit_cache_hits(), 0);
}

// The random-effect POLICY is part of the key even without exclusions: an
// intercept-only session and an all-features session never share models.
TEST(ModelCache, RandomEffectPolicyPartitionsKeys) {
  DatasetHandle handle = PreparePanel();
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");

  Session intercepts = OpenPanelSession(handle);
  ASSERT_TRUE(intercepts.Recommend(complaint).ok());
  ASSERT_GT(intercepts.models_trained(), 0);

  Session all = OpenPanelSession(handle, ExploreRequest().Model(ModelSpec().AllRandomEffects()));
  ASSERT_TRUE(all.Recommend(complaint).ok());
  EXPECT_GT(all.models_trained(), 0);
  EXPECT_EQ(all.fit_cache_hits(), 0);
}

// ---- ModelSpec plumbing and validation -------------------------------------

TEST(ModelSpecApi, EchoReportsWhatRan) {
  DatasetHandle handle = PreparePanel();
  Session session = OpenPanelSession(handle);
  ComplaintSpec complaint = ComplaintSpec::TooHigh("mean", "severity").Where("year", "y1");

  Result<ExploreResponse> defaults = session.Recommend(complaint);
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->model.kind, "multilevel");
  EXPECT_EQ(defaults->model.backend, "factorized");  // auto, resolved
  EXPECT_EQ(defaults->model.em_iterations, 20);
  EXPECT_TRUE(defaults->model.fit_cache);
  EXPECT_TRUE(defaults->model.extra_repair_stats.empty());
  EXPECT_NE(defaults->ToJson().find("\"model\":{\"kind\":\"multilevel\""),
            std::string::npos);

  Result<ExploreResponse> custom = session.Recommend(
      complaint, BatchOptions().Model(ModelSpec()
                                          .Linear()
                                          .Dense()
                                          .EmIterations(7)
                                          .EmTolerance(0.125)
                                          .RepairAlso(AggFn::kCount)));
  ASSERT_TRUE(custom.ok()) << custom.status().ToString();
  EXPECT_EQ(custom->model.kind, "linear");
  EXPECT_EQ(custom->model.backend, "dense");
  EXPECT_EQ(custom->model.em_iterations, 7);
  EXPECT_DOUBLE_EQ(custom->model.em_tolerance, 0.125);
  EXPECT_EQ(custom->model.extra_repair_stats, std::vector<std::string>{"count"});
  // The per-call extra repair stat really ran: count predictions appear.
  ASSERT_TRUE(custom->best() != nullptr);
  ASSERT_FALSE(custom->best()->groups.empty());
  EXPECT_EQ(custom->best()->groups[0].predicted.count("count"), 1u);
}

// A per-call ModelSpec replaces the session's configuration wholesale, the
// random-effect policy included: a per-call spec that names no policy runs
// random intercepts (and fits its own models), whatever the session set.
TEST(ModelSpecApi, PerCallSpecReplacesTheSessionRandomPolicy) {
  DatasetHandle handle = PreparePanel();
  Session session =
      OpenPanelSession(handle, ExploreRequest().Model(ModelSpec().AllRandomEffects()));
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y1");

  Result<ExploreResponse> session_policy = session.Recommend(complaint);
  ASSERT_TRUE(session_policy.ok()) << session_policy.status().ToString();
  EXPECT_EQ(session_policy->model.random_effects, "all");
  int64_t fits_after_session_policy = session.models_trained();

  Result<ExploreResponse> per_call =
      session.Recommend(complaint, BatchOptions().Model(ModelSpec()));
  ASSERT_TRUE(per_call.ok()) << per_call.status().ToString();
  EXPECT_EQ(per_call->model.random_effects, "intercepts");
  EXPECT_GT(session.models_trained(), fits_after_session_policy);  // other key, refit
}

// An EM tolerance converges to the same repair as full iterations on this
// well-conditioned panel, under a distinct cache key.
TEST(ModelSpecApi, EmToleranceConvergesAndPartitions) {
  DatasetHandle handle = PreparePanel();
  Session session = OpenPanelSession(handle);
  ComplaintSpec complaint = ComplaintSpec::TooHigh("mean", "severity").Where("year", "y1");

  Result<ExploreResponse> full = session.Recommend(complaint);
  ASSERT_TRUE(full.ok());
  int64_t fits_after_full = session.models_trained();

  Result<ExploreResponse> tolerant = session.Recommend(
      complaint, BatchOptions().Model(ModelSpec().EmTolerance(1e-12)));
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_GT(session.models_trained(), fits_after_full);  // separate key, refit
  ASSERT_TRUE(tolerant->best() != nullptr);
  ASSERT_FALSE(tolerant->best()->groups.empty());
  ASSERT_TRUE(full->best() != nullptr);
  EXPECT_EQ(tolerant->best()->groups[0].description, full->best()->groups[0].description);
  EXPECT_NEAR(tolerant->best()->groups[0].score, full->best()->groups[0].score, 1e-9);
}

TEST(ModelSpecApi, ValidationErrorsAsStatus) {
  DatasetHandle handle = PreparePanel();
  Session session = OpenPanelSession(handle);
  ComplaintSpec complaint = ComplaintSpec::TooHigh("mean", "severity").Where("year", "y1");

  Result<ExploreResponse> bad_iters =
      session.Recommend(complaint, BatchOptions().Model(ModelSpec().EmIterations(0)));
  EXPECT_EQ(bad_iters.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_iters.status().message().find("em_iterations"), std::string::npos);

  Result<ExploreResponse> bad_tol =
      session.Recommend(complaint, BatchOptions().Model(ModelSpec().EmTolerance(-1.0)));
  EXPECT_EQ(bad_tol.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_tol.status().message().find("em_tolerance"), std::string::npos);

  // Session construction validates an explicit ModelSpec too.
  Result<Session> bad_session =
      Session::Open(handle, ExploreRequest().Model(ModelSpec().EmIterations(-5)));
  EXPECT_EQ(bad_session.status().code(), StatusCode::kInvalidArgument);
}

// Forcing the factorised backend while a multi-attribute auxiliary is
// registered is rejected in the plan stage (it would abort at fit time).
TEST(ModelSpecApi, ForcedFactorizedRejectedWithMultiAttributeAuxiliary) {
  DatasetHandle handle = PreparePanel();
  Session session = OpenPanelSession(handle);
  ASSERT_TRUE(session.Commit("geo").ok());  // district committed; village drillable

  Table aux;
  int district = aux.AddDimensionColumn("district");
  int village = aux.AddDimensionColumn("village");
  int score = aux.AddMeasureColumn("score");
  for (int d = 0; d < kDistricts; ++d) {
    for (int v = 0; v < kVillages; ++v) {
      aux.SetDim(district, "d" + std::to_string(d));
      aux.SetDim(village, "d" + std::to_string(d) + "_v" + std::to_string(v));
      aux.SetMeasure(score, d + 0.1 * v);
      aux.CommitRow();
    }
  }
  AuxiliaryRequest request;
  request.name = "score";
  request.table = std::move(aux);
  request.join_attributes = {"district", "village"};
  request.measure = "score";
  ASSERT_TRUE(session.RegisterAuxiliary(std::move(request)).ok());

  ComplaintSpec complaint = ComplaintSpec::TooHigh("mean", "severity").Where("year", "y1");
  Result<ExploreResponse> forced =
      session.Recommend(complaint, BatchOptions().Model(ModelSpec().Factorized()));
  EXPECT_EQ(forced.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(forced.status().message().find("score"), std::string::npos);

  // With the multi-attribute auxiliary present, auto stays auto in the echo
  // (the backend is resolved per fit) — and the call itself succeeds.
  Result<ExploreResponse> auto_ok = session.Recommend(complaint);
  ASSERT_TRUE(auto_ok.ok()) << auto_ok.status().ToString();
  EXPECT_EQ(auto_ok->model.backend, "auto");
}

}  // namespace
}  // namespace reptile
