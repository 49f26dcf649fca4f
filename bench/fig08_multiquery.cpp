// Figure 8: multi-query execution through the public Session facade —
// Reptile's batched RecommendAll, which plans every complaint over one pass
// of the drill-down caches and trains each shared (hierarchy, primitive)
// model once, vs issuing the same complaints as N independent Recommend
// calls (the LMFAO-style contrast of paper Section 5.1.2: batching many
// aggregate queries behind one planning API).
//
// Setup: a district x village x year severity panel; the batch files one
// STD complaint per year (all sharing the "drill geo to villages" hierarchy
// extension). x-axis: batch size. Expected shape: batched wall-clock stays
// near-flat in the model-training term (3 primitive models total) while
// sequential grows linearly (3 models per complaint); the models_trained
// counters report exactly that sharing. Every timed call runs with the fit
// cache off, so each batch and each complaint trains its models cold.
//
// The Parallel sweep fixes the batch at the maximum size and sweeps the
// per-call worker count over {1, 2, 4, 8} (REPTILE_FIG8_MAX_THREADS caps
// it): model fits and per-complaint rankings fan out, so wall time drops
// while models_trained (fits per batch) stays constant. Recommendations are
// verified byte-identical across thread counts before the benchmarks run.
//
// Exercises only the public api/ surface (no core/engine.h include);
// common/env.h is shared benchmark-harness plumbing, not engine internals.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/env.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

constexpr int kDistricts = 12;
constexpr int kVillages = 8;
constexpr int kYears = 16;
constexpr int kRowsPerGroup = 6;

Dataset MakePanel() {
  Table table;
  int district = table.AddDimensionColumn("district");
  int village = table.AddDimensionColumn("village");
  int year = table.AddDimensionColumn("year");
  int severity = table.AddMeasureColumn("severity");
  uint64_t state = 8; /* deterministic LCG noise */
  auto noise = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  };
  for (int d = 0; d < kDistricts; ++d) {
    for (int v = 0; v < kVillages; ++v) {
      std::string district_name = "d" + std::to_string(d);
      std::string village_name = district_name + "_v" + std::to_string(v);
      for (int y = 0; y < kYears; ++y) {
        for (int r = 0; r < kRowsPerGroup; ++r) {
          table.SetDim(district, district_name);
          table.SetDim(village, village_name);
          table.SetDim(year, "y" + std::to_string(y));
          table.SetMeasure(severity, 5.0 + 0.4 * d + 0.25 * y + noise());
          table.CommitRow();
        }
      }
    }
  }
  Result<Dataset> dataset = Dataset::Make(
      std::move(table), {{"geo", {"district", "village"}}, {"time", {"year"}}});
  if (!dataset.ok()) {
    std::fprintf(stderr, "panel setup failed: %s\n", dataset.status().ToString().c_str());
    std::abort();
  }
  return std::move(dataset).value();
}

// One long-lived session per benchmark; drill state: years committed, geo
// drillable (every complaint shares the geo extension). STD complaints
// decompose into three primitives (COUNT, MEAN, STD).
Session& SharedSession() {
  static Session& session = *new Session([] {
    Result<Session> created = Session::Create(MakePanel());
    if (!created.ok()) {
      std::fprintf(stderr, "session setup failed: %s\n", created.status().ToString().c_str());
      std::abort();
    }
    Status committed = created->Commit("time");
    if (!committed.ok()) {
      std::fprintf(stderr, "commit failed: %s\n", committed.ToString().c_str());
      std::abort();
    }
    return std::move(created).value();
  }());
  return session;
}

std::vector<ComplaintSpec> MakeComplaints(int64_t n) {
  std::vector<ComplaintSpec> complaints;
  complaints.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    complaints.push_back(ComplaintSpec::TooHigh("std", "severity")
                             .Where("year", "y" + std::to_string(i % kYears)));
  }
  return complaints;
}

// Serialisation of a batch with the (legitimately scheduling-dependent)
// timing fields zeroed, so results can be compared byte-for-byte. The fit
// counters are cache temperature, not answers — the verify's first batch
// fits the shared models and every later batch reuses them — so they are
// zeroed along with the timings.
std::string TimelessJson(BatchExploreResponse batch) {
  batch.models_trained = 0;
  batch.fit_cache_hits = 0;
  batch.train_seconds = 0.0;
  batch.wall_seconds = 0.0;
  for (ExploreResponse& response : batch.responses) {
    for (HierarchyResponse& candidate : response.candidates) {
      candidate.train_seconds = 0.0;
      candidate.total_seconds = 0.0;
    }
  }
  return batch.ToJson();
}

// Aborts unless the batch produces byte-identical recommendations at every
// swept thread count (the Section 5.1.2 requirement: parallelism changes the
// schedule, never the answer).
void VerifyIdenticalAcrossThreads(int64_t batch_size, int max_threads) {
  Session& session = SharedSession();
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  Result<BatchExploreResponse> reference =
      session.RecommendAll(std::span<const ComplaintSpec>(complaints), BatchOptions().Threads(1));
  if (!reference.ok()) {
    std::fprintf(stderr, "verify failed: %s\n", reference.status().ToString().c_str());
    std::abort();
  }
  std::string expected = TimelessJson(*reference);
  for (int threads = 2; threads <= max_threads; threads *= 2) {
    Result<BatchExploreResponse> batch = session.RecommendAll(
        std::span<const ComplaintSpec>(complaints), BatchOptions().Threads(threads));
    if (!batch.ok()) {
      std::fprintf(stderr, "verify failed at %d threads: %s\n", threads,
                   batch.status().ToString().c_str());
      std::abort();
    }
    if (TimelessJson(*batch) != expected) {
      std::fprintf(stderr,
                   "verify failed: recommendations at %d threads differ from sequential\n",
                   threads);
      std::abort();
    }
  }
  std::fprintf(stderr, "fig08 verify: batch of %lld byte-identical at 1..%d threads\n",
               static_cast<long long>(batch_size), max_threads);
}

// The timed loops bypass the process-shared fit cache: the verify pass
// warms it, and a warm cache would hide the training term that batching
// shares (every curve would report models_trained = 0).
BatchOptions ColdFits(int threads) {
  return BatchOptions().Threads(threads).Model(ModelSpec().FitCache(false));
}

void BM_MultiQuery_Batched(benchmark::State& state) {
  Session& session = SharedSession();
  std::vector<ComplaintSpec> complaints = MakeComplaints(state.range(0));
  int64_t models = 0;
  for (auto _ : state) {
    Result<BatchExploreResponse> batch =
        session.RecommendAll(std::span<const ComplaintSpec>(complaints), ColdFits(1));
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    models = batch->models_trained;
    benchmark::DoNotOptimize(batch);
  }
  state.counters["models_trained"] = static_cast<double>(models);
}

void BM_MultiQuery_Sequential(benchmark::State& state) {
  Session& session = SharedSession();
  std::vector<ComplaintSpec> complaints = MakeComplaints(state.range(0));
  int64_t models = 0;
  for (auto _ : state) {
    int64_t before = session.models_trained();
    for (const ComplaintSpec& complaint : complaints) {
      Result<ExploreResponse> response = session.Recommend(complaint, ColdFits(1));
      if (!response.ok()) {
        state.SkipWithError(response.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(response);
    }
    models = session.models_trained() - before;
  }
  state.counters["models_trained"] = static_cast<double>(models);
}

// Fixed batch, swept per-call worker count: the tentpole measurement. The
// "speedup" counter is this run's wall time relative to the 1-thread run of
// the same batch size (measured once up front, outside the timed loop).
double SequentialBaselineSeconds(int64_t batch_size) {
  Session& session = SharedSession();
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  // Warm the drill-down caches, then take the best of three.
  double best = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    Result<BatchExploreResponse> batch =
        session.RecommendAll(std::span<const ComplaintSpec>(complaints), ColdFits(1));
    if (!batch.ok()) return 0.0;
    if (rep == 0) continue;
    if (best == 0.0 || batch->wall_seconds < best) best = batch->wall_seconds;
  }
  return best;
}

void BM_MultiQuery_Parallel(benchmark::State& state) {
  static std::map<int64_t, double> baseline;  // batch size -> 1-thread seconds
  Session& session = SharedSession();
  int64_t batch_size = state.range(0);
  int threads = static_cast<int>(state.range(1));
  if (baseline.find(batch_size) == baseline.end()) {
    baseline[batch_size] = SequentialBaselineSeconds(batch_size);
  }
  std::vector<ComplaintSpec> complaints = MakeComplaints(batch_size);
  int64_t models = 0;
  double wall = 0.0;
  int64_t iters = 0;
  for (auto _ : state) {
    Result<BatchExploreResponse> batch =
        session.RecommendAll(std::span<const ComplaintSpec>(complaints), ColdFits(threads));
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      return;
    }
    models = batch->models_trained;
    wall += batch->wall_seconds;
    ++iters;
    benchmark::DoNotOptimize(batch);
  }
  state.counters["threads"] = threads;
  state.counters["models_trained"] = static_cast<double>(models);  // fits per batch
  if (iters > 0 && wall > 0.0 && baseline[batch_size] > 0.0) {
    state.counters["speedup"] =
        baseline[batch_size] / (wall / static_cast<double>(iters));
  }
}

void RegisterAll() {
  int64_t max_batch = EnvInt("REPTILE_FIG8_MAX_BATCH", 16);
  if (max_batch <= 0) max_batch = 16;
  int64_t max_threads = EnvInt("REPTILE_FIG8_MAX_THREADS", 8);
  if (max_threads <= 0) max_threads = 8;
  VerifyIdenticalAcrossThreads(max_batch, static_cast<int>(max_threads));
  for (auto fn : {std::make_pair("Fig8/MultiQuery/Batched", BM_MultiQuery_Batched),
                  std::make_pair("Fig8/MultiQuery/Sequential", BM_MultiQuery_Sequential)}) {
    auto* bench = benchmark::RegisterBenchmark(fn.first, fn.second)
                      ->Unit(benchmark::kMillisecond)
                      ->MinTime(0.05);
    for (int64_t n = 1; n <= max_batch; n *= 2) bench->Arg(n);
  }
  auto* parallel = benchmark::RegisterBenchmark("Fig8/MultiQuery/Parallel", BM_MultiQuery_Parallel)
                       ->Unit(benchmark::kMillisecond)
                       ->MinTime(0.05);
  for (int64_t t = 1; t <= max_threads; t *= 2) parallel->Args({max_batch, t});
}

}  // namespace
}  // namespace reptile

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  reptile::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
