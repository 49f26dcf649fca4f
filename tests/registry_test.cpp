// The dataset/session split (api/registry.h): DatasetRegistry CRUD,
// cross-session sharing of f-trees and committed-depth aggregates (pointer
// identity and build counters — the single-copy memory check), per-session
// drill-state isolation, warm-vs-cold byte-identical responses, session
// persist/restore, and the concurrent session lifecycle scripts/check.sh
// re-runs under TSan.

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/panel_gen.h"
#include "factor/agg_cache.h"
#include "gtest/gtest.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = 4;
  spec.villages_per_district = 3;
  spec.years = 4;
  spec.rows_per_group = 3;
  return MakeSeverityPanel(spec);
}

ComplaintSpec YearComplaint(int year) {
  return ComplaintSpec::TooHigh("std", "severity")
      .Where("year", "y" + std::to_string(year));
}

// Serialization with the scheduling-dependent timing fields zeroed, for
// byte-equality across sessions.
std::string TimelessJson(ExploreResponse response) {
  for (HierarchyResponse& candidate : response.candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
  return response.ToJson();
}

TEST(DatasetRegistry, AddFindRemove) {
  DatasetRegistry registry;
  EXPECT_EQ(registry.size(), 0);
  Result<DatasetHandle> added = registry.Add("panel", MakePanel());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_TRUE(registry.Contains("panel"));
  EXPECT_EQ(registry.size(), 1);

  // Find hands out the same prepared dataset, not a copy.
  Result<DatasetHandle> found = registry.Find("panel");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), added->get());

  // Name errors.
  EXPECT_EQ(registry.Add("", MakePanel()).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Add("panel", MakePanel()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Find("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Remove("nope").code(), StatusCode::kNotFound);

  // Remove drops the name but not the dataset: live handles stay valid.
  ASSERT_TRUE(registry.Remove("panel").ok());
  EXPECT_FALSE(registry.Contains("panel"));
  EXPECT_EQ((*found)->table().num_rows(), 4u * 3u * 4u * 3u);

  // Validation happens at registration.
  EXPECT_EQ(registry.Add("bad", Dataset()).status().code(), StatusCode::kInvalidArgument);
}

// The tentpole acceptance criterion: two sessions over one registry dataset
// share the f-trees and committed-depth aggregate caches — asserted via the
// cache's entry pointers (single copy in memory) and per-session build
// counters — while responses stay byte-identical between the cold (built the
// cache) and warm (found it) session.
TEST(DatasetRegistry, SessionsShareAggregatesAndStayByteIdentical) {
  DatasetRegistry registry;
  Result<DatasetHandle> handle = registry.Add("panel", MakePanel());
  ASSERT_TRUE(handle.ok());

  Result<Session> cold = Session::Open(*handle);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->Commit("time").ok());
  Result<ExploreResponse> cold_response = cold->Recommend(YearComplaint(1));
  ASSERT_TRUE(cold_response.ok()) << cold_response.status().ToString();
  EXPECT_GT(cold->aggregate_builds(), 0);

  // The cache now holds the entries the cold session built; remember owning
  // handles to them (under the default unlimited budget nothing is evicted,
  // so the same objects must still be resident later).
  const SharedAggregateCache& cache = (*handle)->cache();
  const int64_t entries_after_cold = cache.entries();
  ASSERT_GT(entries_after_cold, 0);
  std::map<AggregateKey, HierarchyAggregatesPtr> cold_entries;
  for (const AggregateKey& key : cache.Keys()) cold_entries[key] = cache.Peek(key);

  // A second session at the same drill state: identical bytes, ZERO builds
  // of its own, and the very same cached aggregate objects.
  Result<Session> warm = Session::Open(*handle);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Commit("time").ok());
  Result<ExploreResponse> warm_response = warm->Recommend(YearComplaint(1));
  ASSERT_TRUE(warm_response.ok());
  EXPECT_EQ(TimelessJson(*warm_response), TimelessJson(*cold_response));
  EXPECT_EQ(warm->aggregate_builds(), 0);
  EXPECT_EQ(cache.entries(), entries_after_cold);
  for (const auto& [key, entry] : cold_entries) {
    EXPECT_EQ(cache.Peek(key).get(), entry.get())
        << "aggregate (" << std::get<1>(key) << ", " << std::get<2>(key)
        << ") was rebuilt or moved";
  }

  // The warm session trains NOTHING: beyond the aggregate/f-tree layer, the
  // shared fitted-model cache hands it the cold session's models (same
  // committed depths, same default ModelSpec -> same keys).
  EXPECT_GT(cold->models_trained(), 0);
  EXPECT_EQ(warm->models_trained(), 0);
  EXPECT_EQ(warm->fit_cache_hits(), cold->models_trained());
}

TEST(DatasetRegistry, DrillStateIsPerSession) {
  DatasetRegistry registry;
  Result<DatasetHandle> handle = registry.Add("panel", MakePanel());
  ASSERT_TRUE(handle.ok());
  Result<Session> a = Session::Open(*handle);
  Result<Session> b = Session::Open(*handle);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // a drills geo twice and time once; b drills nothing.
  ASSERT_TRUE(a->Commit("geo").ok());
  ASSERT_TRUE(a->Commit("geo").ok());
  ASSERT_TRUE(a->Commit("time").ok());
  EXPECT_EQ(*a->DrillDepth("geo"), 2);
  EXPECT_EQ(*b->DrillDepth("geo"), 0);
  EXPECT_EQ(*b->DrillDepth("time"), 0);
  EXPECT_TRUE(*b->CanDrill("geo"));
  EXPECT_FALSE(*a->CanDrill("geo"));

  // a is exhausted; b still recommends.
  EXPECT_EQ(a->Recommend(YearComplaint(0)).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(b->Commit("time").ok());
  EXPECT_TRUE(b->Recommend(YearComplaint(0)).ok());

  // Per-session auxiliaries: registering on a does not leak into b.
  Table aux;
  int district = aux.AddDimensionColumn("district");
  int rainfall = aux.AddMeasureColumn("rainfall");
  for (int d = 0; d < 4; ++d) {
    aux.SetDim(district, "d" + std::to_string(d));
    aux.SetMeasure(rainfall, 10.0 * d);
    aux.CommitRow();
  }
  AuxiliaryRequest request;
  request.name = "rain";
  request.table = std::move(aux);
  request.join_attributes = {"district"};
  request.measure = "rainfall";
  EXPECT_TRUE(b->RegisterAuxiliary(std::move(request)).ok());
  EXPECT_EQ(b->ExcludeFromRandomEffects("rain").code(), StatusCode::kOk);
  EXPECT_EQ(a->ExcludeFromRandomEffects("rain").code(), StatusCode::kNotFound);
}

TEST(DatasetRegistry, CommittedDepthsSnapshotAndRestore) {
  DatasetRegistry registry;
  Result<DatasetHandle> handle = registry.Add("panel", MakePanel());
  ASSERT_TRUE(handle.ok());
  Result<Session> original = Session::Open(*handle);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original->Commit("time").ok());
  ASSERT_TRUE(original->Commit("geo").ok());

  std::map<std::string, int> snapshot = original->CommittedDepths();
  EXPECT_EQ(snapshot, (std::map<std::string, int>{{"geo", 1}, {"time", 1}}));

  // Restore into a fresh session: same drill state, same recommendations.
  Result<Session> restored = Session::Open(*handle);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->RestoreCommitted(snapshot).ok());
  EXPECT_EQ(restored->CommittedDepths(), snapshot);
  ComplaintSpec complaint =
      ComplaintSpec::TooHigh("mean", "severity").Where("district", "d1");
  Result<ExploreResponse> original_response = original->Recommend(complaint);
  Result<ExploreResponse> restored_response = restored->Recommend(complaint);
  ASSERT_TRUE(original_response.ok()) << original_response.status().ToString();
  ASSERT_TRUE(restored_response.ok());
  EXPECT_EQ(TimelessJson(*restored_response), TimelessJson(*original_response));

  // Restore errors: unknown hierarchy, out-of-range depth, undrilling.
  Result<Session> fresh = Session::Open(*handle);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->RestoreCommitted({{"nope", 1}}).code(), StatusCode::kNotFound);
  EXPECT_EQ(fresh->RestoreCommitted({{"geo", 3}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh->RestoreCommitted({{"geo", -1}}).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(fresh->Commit("geo").ok());
  EXPECT_EQ(fresh->RestoreCommitted({{"geo", 0}}).code(),
            StatusCode::kFailedPrecondition);
  // A failed restore leaves the session untouched.
  EXPECT_EQ(*fresh->DrillDepth("geo"), 1);
  EXPECT_EQ(*fresh->DrillDepth("time"), 0);
}

// The satellite regression: Session::dataset() returns the shared handle, so
// the result survives move-assignment over the session (the old reference
// return dangled when the session's guts were replaced) and even outliving
// the session and the registry entry.
TEST(DatasetRegistry, DatasetHandleSurvivesSessionMoveAndDeath) {
  DatasetRegistry registry;
  Result<DatasetHandle> handle = registry.Add("panel", MakePanel());
  ASSERT_TRUE(handle.ok());
  Result<Session> a = Session::Open(*handle);
  Result<Session> b = Session::Open(*handle);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  DatasetHandle seen = a->dataset();
  EXPECT_EQ(seen.get(), handle->get());
  const Table* table = &seen->table();

  // Move-assigning over the session replaces its guts; the handle (and
  // everything reached through it) stays valid.
  *a = std::move(*b);
  EXPECT_EQ(seen->table().num_rows(), 4u * 3u * 4u * 3u);
  EXPECT_EQ(&seen->table(), table);
  EXPECT_EQ(a->dataset().get(), seen.get());

  // Registry removal and session death still leave the handle alive.
  ASSERT_TRUE(registry.Remove("panel").ok());
  handle = Status::NotFound("dropped");
  a = Status::NotFound("dropped");
  EXPECT_EQ(&seen->table(), table);
  EXPECT_EQ(seen->table().num_rows(), 4u * 3u * 4u * 3u);
}

TEST(DatasetRegistry, OpenValidation) {
  EXPECT_EQ(Session::Open(DatasetHandle()).status().code(), StatusCode::kInvalidArgument);
  DatasetRegistry registry;
  Result<DatasetHandle> handle = registry.Add("panel", MakePanel());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(Session::Open(*handle, ExploreRequest().TopK(0)).status().code(),
            StatusCode::kInvalidArgument);
}

// The TSan half of the acceptance criterion: N client threads running the
// full lifecycle — open, restore, recommend, commit deeper, recommend again,
// snapshot, drop — concurrently over ONE registry dataset. Every thread's
// responses must equal the single-threaded golden; the shared cache may be
// racing to build the same entries underneath.
TEST(DatasetRegistry, ConcurrentSessionLifecycleOverOneDataset) {
  DatasetRegistry registry;
  Result<DatasetHandle> handle = registry.Add("panel", MakePanel());
  ASSERT_TRUE(handle.ok());

  // Golden responses, computed single-threaded on a private dataset copy so
  // the shared cache starts COLD for the concurrent phase below.
  Result<Session> golden = Session::Create(MakePanel());
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(golden->Commit("time").ok());
  Result<ExploreResponse> golden_shallow = golden->Recommend(YearComplaint(1));
  ASSERT_TRUE(golden_shallow.ok()) << golden_shallow.status().ToString();
  ASSERT_TRUE(golden->Commit("geo").ok());
  ComplaintSpec deep = ComplaintSpec::TooHigh("mean", "severity").Where("district", "d2");
  Result<ExploreResponse> golden_deep = golden->Recommend(deep);
  ASSERT_TRUE(golden_deep.ok()) << golden_deep.status().ToString();
  const std::string expected_shallow = TimelessJson(*golden_shallow);
  const std::string expected_deep = TimelessJson(*golden_deep);

  constexpr int kThreads = 4;
  constexpr int kIterations = 3;
  std::vector<int> failures(kThreads, 0);
  std::vector<int64_t> builds(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        Result<Session> session = Session::Open(*handle);
        if (!session.ok()) {
          ++failures[t];
          continue;
        }
        if (!session->RestoreCommitted({{"time", 1}}).ok()) ++failures[t];
        Result<ExploreResponse> shallow = session->Recommend(YearComplaint(1));
        if (!shallow.ok() || TimelessJson(*shallow) != expected_shallow) ++failures[t];
        if (!session->Commit("geo").ok()) ++failures[t];
        Result<ExploreResponse> got_deep = session->Recommend(deep);
        if (!got_deep.ok() || TimelessJson(*got_deep) != expected_deep) ++failures[t];
        if (session->CommittedDepths() !=
            (std::map<std::string, int>{{"geo", 1}, {"time", 1}})) {
          ++failures[t];
        }
        builds[t] += session->aggregate_builds();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "worker " << t << " diverged from the golden responses";
  }

  // Whatever the interleaving, the cache converged to one copy per entry,
  // and each entry was built exactly once between all racing sessions.
  const SharedAggregateCache& cache = (*handle)->cache();
  EXPECT_GT(cache.entries(), 0);
  EXPECT_GT(cache.hits(), 0);
  int64_t total_builds = 0;
  for (int64_t session_builds : builds) total_builds += session_builds;
  EXPECT_EQ(total_builds, cache.entries());
  EXPECT_EQ(cache.misses(), cache.entries());
  // The group-statistics cache likewise ran each statistics pass once.
  EXPECT_GT((*handle)->group_stats_cache_entries(), 0);
  EXPECT_EQ((*handle)->group_stats_cache_misses(), (*handle)->group_stats_cache_entries());
}

}  // namespace
}  // namespace reptile
