// Tests for the parallel/ subsystem and the parallel batched engine:
//  * ThreadPool semantics — tasks run, exceptions propagate to the caller,
//    the pool drains on destruction, results land in index order;
//  * Rng sub-streams — deterministic in (seed, stream), decorrelated across
//    streams, independent of the parent's draw position;
//  * determinism — RecommendAll at num_threads 1 / 2 / 8 is element-wise
//    identical to the sequential output, on the fig08-style workload and on
//    randomized chain datasets, through both the session facade and the
//    engine; and BatchTiming reports summed fit work next to wall time.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "core/engine.h"
#include "datagen/synthetic.h"
#include "parallel/thread_pool.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DrainsOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
    // No Wait(): the destructor must run every submitted task before joining.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) { EXPECT_GE(ThreadPool::DefaultThreads(), 1); }

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, 257, [&](int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](int64_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // sequential, in order
}

TEST(ParallelForTest, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 32,
                  [&](int64_t i) {
                    if (i % 2 == 1) throw std::runtime_error("task " + std::to_string(i));
                  }),
      std::runtime_error);
  // The pool must still be usable after a failed ParallelFor.
  std::atomic<int> count{0};
  ParallelFor(&pool, 8, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(SharedThreadPoolTest, IsOneProcessWidePool) {
  ThreadPool* pool = SharedThreadPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), ThreadPool::DefaultThreads());
  // Same instance from every thread (lazy init is thread-safe).
  std::vector<ThreadPool*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&seen, t] { seen[static_cast<size_t>(t)] = SharedThreadPool(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (ThreadPool* p : seen) EXPECT_EQ(p, pool);
}

TEST(SharedThreadPoolTest, SupportsConcurrentParallelFors) {
  // Several threads fan out over the shared pool at once — the server's
  // steady state (each connection thread running one engine call). Each
  // ParallelFor's completion latch is its own; results must not interleave.
  constexpr int kCallers = 3;
  constexpr int64_t kWork = 211;
  std::vector<std::vector<int>> results(kCallers, std::vector<int>(kWork, -1));
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&results, t] {
      ParallelFor(SharedThreadPool(), kWork, [&results, t](int64_t i) {
        results[static_cast<size_t>(t)][static_cast<size_t>(i)] = t * 1000 + static_cast<int>(i);
      });
    });
  }
  for (std::thread& thread : callers) thread.join();
  for (int t = 0; t < kCallers; ++t) {
    for (int64_t i = 0; i < kWork; ++i) {
      EXPECT_EQ(results[static_cast<size_t>(t)][static_cast<size_t>(i)],
                t * 1000 + static_cast<int>(i));
    }
  }
}

TEST(ParallelForTest, RethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  for (int trial = 0; trial < 8; ++trial) {
    try {
      ParallelFor(&pool, 64, [&](int64_t i) {
        if (i >= 3) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "ParallelFor did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");  // deterministic despite scheduling
    }
  }
}

TEST(ParallelMapTest, ResultsLandInIndexOrder) {
  ThreadPool pool(8);
  std::vector<int64_t> squares = ParallelMap<int64_t>(&pool, 100, [](int64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
}

// ---------------------------------------------------------------------------
// Rng sub-streams
// ---------------------------------------------------------------------------

TEST(RngStreamTest, StreamsAreDeterministic) {
  Rng root(7);
  Rng a = root.Stream(3);
  Rng b = root.Stream(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
}

TEST(RngStreamTest, StreamZeroMatchesPlainSeed) {
  // Stream 0 is the raw seed, so Rng(seed) sequences — every pre-existing
  // experiment — are unchanged.
  Rng plain(42);
  Rng stream0 = Rng(42).Stream(0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(plain.UniformInt(0, 1 << 30), stream0.UniformInt(0, 1 << 30));
  }
}

TEST(RngStreamTest, StreamsAreIndependentOfParentDrawPosition) {
  Rng a(11);
  Rng b(11);
  for (int i = 0; i < 17; ++i) (void)b.Uniform();  // advance b only
  Rng sa = a.Stream(5);
  Rng sb = b.Stream(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sa.UniformInt(0, 1 << 30), sb.UniformInt(0, 1 << 30));
}

TEST(RngStreamTest, DistinctStreamsDecorrelate) {
  Rng root(123);
  std::set<int64_t> firsts;
  for (uint64_t s = 0; s < 64; ++s) {
    Rng stream = root.Stream(s);
    firsts.insert(stream.UniformInt(0, (int64_t{1} << 62)));
  }
  // 64 streams, 63-bit range: any collision means the mixing is broken.
  EXPECT_EQ(firsts.size(), 64u);
}

TEST(RngStreamTest, StreamsSafeToDrawConcurrently) {
  // One sub-stream per task is the supported pattern; each stream must
  // produce its deterministic sequence regardless of scheduling.
  Rng root(99);
  std::vector<double> expected;
  for (uint64_t s = 0; s < 16; ++s) expected.push_back(Rng(99, s + 1).Uniform());
  ThreadPool pool(4);
  std::vector<double> got = ParallelMap<double>(&pool, 16, [&](int64_t i) {
    Rng stream = root.Stream(static_cast<uint64_t>(i) + 1);
    return stream.Uniform();
  });
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Engine determinism across thread counts
// ---------------------------------------------------------------------------

// The fig08 panel: district x village x year severity, years committed so
// every complaint shares the "drill geo to villages" extension.
Dataset MakePanel() {
  Table table;
  int district = table.AddDimensionColumn("district");
  int village = table.AddDimensionColumn("village");
  int year = table.AddDimensionColumn("year");
  int severity = table.AddMeasureColumn("severity");
  uint64_t state = 8;
  auto noise = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  };
  for (int d = 0; d < 6; ++d) {
    for (int v = 0; v < 4; ++v) {
      std::string district_name = "d" + std::to_string(d);
      std::string village_name = district_name + "_v" + std::to_string(v);
      for (int y = 0; y < 8; ++y) {
        for (int r = 0; r < 3; ++r) {
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
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

std::vector<ComplaintSpec> PanelComplaints() {
  std::vector<ComplaintSpec> complaints;
  for (int y = 0; y < 8; ++y) {
    complaints.push_back(
        ComplaintSpec::TooHigh("std", "severity").Where("year", "y" + std::to_string(y)));
  }
  // A mean complaint over a different slice, so the batch mixes aggregates.
  complaints.push_back(ComplaintSpec::TooHigh("mean", "severity").Where("year", "y0"));
  return complaints;
}

// Full structural equality, timing fields excluded (those legitimately vary
// with scheduling; everything else must be bit-identical).
void ExpectSameResponse(const ExploreResponse& a, const ExploreResponse& b) {
  EXPECT_EQ(a.complaint, b.complaint);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  EXPECT_EQ(a.best_index, b.best_index);
  for (size_t c = 0; c < a.candidates.size(); ++c) {
    const HierarchyResponse& ca = a.candidates[c];
    const HierarchyResponse& cb = b.candidates[c];
    EXPECT_EQ(ca.hierarchy, cb.hierarchy);
    EXPECT_EQ(ca.attribute, cb.attribute);
    EXPECT_EQ(ca.model_rows, cb.model_rows);
    EXPECT_EQ(ca.model_clusters, cb.model_clusters);
    // Bit-identical, not approximately equal: the parallel path must run the
    // exact same floating-point program per fit.
    EXPECT_EQ(ca.best_score, cb.best_score);
    ASSERT_EQ(ca.groups.size(), cb.groups.size());
    for (size_t g = 0; g < ca.groups.size(); ++g) {
      const GroupResponse& ga = ca.groups[g];
      const GroupResponse& gb = cb.groups[g];
      EXPECT_EQ(ga.description, gb.description);
      EXPECT_EQ(ga.key, gb.key);
      EXPECT_EQ(ga.observed, gb.observed);
      EXPECT_EQ(ga.predicted, gb.predicted);
      EXPECT_EQ(ga.repaired, gb.repaired);
      EXPECT_EQ(ga.repaired_complaint_value, gb.repaired_complaint_value);
      EXPECT_EQ(ga.score, gb.score);
    }
  }
}

Session MakePanelSession(int num_threads) {
  Result<Session> session =
      Session::Create(MakePanel(), ExploreRequest().Threads(num_threads));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  Status committed = session->Commit("time");
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  return std::move(session).value();
}

TEST(ParallelEngineTest, BatchIdenticalAcrossThreadCounts) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Session sequential = MakePanelSession(1);
  Result<BatchExploreResponse> reference =
      sequential.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int threads : {2, 8}) {
    Session parallel = MakePanelSession(threads);
    Result<BatchExploreResponse> batch =
        parallel.RecommendAll(std::span<const ComplaintSpec>(complaints));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->models_trained, reference->models_trained);
    ASSERT_EQ(batch->responses.size(), reference->responses.size());
    for (size_t i = 0; i < batch->responses.size(); ++i) {
      ExpectSameResponse(batch->responses[i], reference->responses[i]);
    }
  }
}

TEST(ParallelEngineTest, BatchMatchesSequentialRecommends) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Session one_by_one = MakePanelSession(8);
  Session batched = MakePanelSession(8);
  Result<BatchExploreResponse> batch =
      batched.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < complaints.size(); ++i) {
    Result<ExploreResponse> single = one_by_one.Recommend(complaints[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ExpectSameResponse(batch->responses[i], *single);
  }
}

TEST(ParallelEngineTest, PerCallOverridesApplyToOneCallOnly) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Session session = MakePanelSession(1);
  Result<BatchExploreResponse> reference =
      session.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Same call with per-call threads + top_k overrides: same recommendations,
  // truncated to one group per candidate.
  Result<BatchExploreResponse> overridden = session.RecommendAll(
      std::span<const ComplaintSpec>(complaints), BatchOptions().Threads(4).TopK(1));
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  for (size_t i = 0; i < complaints.size(); ++i) {
    const ExploreResponse& ref = reference->responses[i];
    const ExploreResponse& got = overridden->responses[i];
    EXPECT_EQ(got.best_index, ref.best_index);
    ASSERT_EQ(got.candidates.size(), ref.candidates.size());
    for (size_t c = 0; c < got.candidates.size(); ++c) {
      EXPECT_EQ(got.candidates[c].best_score, ref.candidates[c].best_score);
      EXPECT_LE(got.candidates[c].groups.size(), 1u);
      if (!ref.candidates[c].groups.empty()) {
        ASSERT_EQ(got.candidates[c].groups.size(), 1u);
        EXPECT_EQ(got.candidates[c].groups[0].description,
                  ref.candidates[c].groups[0].description);
      }
    }
  }

  // The override did not stick to the session.
  Result<BatchExploreResponse> after =
      session.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  for (size_t i = 0; i < complaints.size(); ++i) {
    ExpectSameResponse(after->responses[i], reference->responses[i]);
  }
}

// OS threads of this process: one /proc/self/task entry each (Linux).
int CountProcessThreads() {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(ParallelEngineTest, WidthAboveTheMachineDefaultSharesTheProcessPool) {
  // No width starts threads of its own: every width from 2 to one above the
  // machine default runs on the already-started SharedThreadPool(), with
  // the sequential session's responses. One session per width.
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Session sequential = MakePanelSession(1);
  Result<BatchExploreResponse> reference =
      sequential.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ASSERT_NE(SharedThreadPool(), nullptr);
  for (int width = 2; width <= ThreadPool::DefaultThreads() + 1; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    Session session = MakePanelSession(width);
    const int threads_before = CountProcessThreads();
    Result<BatchExploreResponse> batch =
        session.RecommendAll(std::span<const ComplaintSpec>(complaints));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(CountProcessThreads(), threads_before);
    ASSERT_EQ(batch->responses.size(), reference->responses.size());
    for (size_t i = 0; i < batch->responses.size(); ++i) {
      ExpectSameResponse(batch->responses[i], reference->responses[i]);
    }
  }
}

TEST(ParallelEngineTest, PerCallExtraRepairStatsOverride) {
  // MEAN decomposes into {mean} alone, so the per-call extra visibly adds a
  // "count" prediction; a per-call ModelSpec without extras strips the
  // session-level extras for that call only.
  ComplaintSpec complaint = ComplaintSpec::TooHigh("mean", "severity").Where("year", "y0");
  Session plain = MakePanelSession(1);
  Result<ExploreResponse> without = plain.Recommend(complaint);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  const GroupResponse& without_group = without->best()->groups.front();
  EXPECT_EQ(without_group.predicted.count("count"), 0u);

  Result<ExploreResponse> with_extra =
      plain.Recommend(complaint, BatchOptions().Model(ModelSpec().RepairAlso(AggFn::kCount)));
  ASSERT_TRUE(with_extra.ok()) << with_extra.status().ToString();
  EXPECT_EQ(with_extra->best()->groups.front().predicted.count("count"), 1u);

  // The override did not stick to the session.
  Result<ExploreResponse> after = plain.Recommend(complaint);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->best()->groups.front().predicted.count("count"), 0u);

  // Session-level extras, toggled off per call.
  Result<Session> with_session_extras = Session::Create(
      MakePanel(), ExploreRequest().Threads(1).Model(ModelSpec().RepairAlso(AggFn::kCount)));
  ASSERT_TRUE(with_session_extras.ok()) << with_session_extras.status().ToString();
  ASSERT_TRUE(with_session_extras->Commit("time").ok());
  Result<ExploreResponse> session_extra = with_session_extras->Recommend(complaint);
  ASSERT_TRUE(session_extra.ok());
  EXPECT_EQ(session_extra->best()->groups.front().predicted.count("count"), 1u);
  Result<ExploreResponse> toggled_off =
      with_session_extras->Recommend(complaint, BatchOptions().Model(ModelSpec()));
  ASSERT_TRUE(toggled_off.ok());
  EXPECT_EQ(toggled_off->best()->groups.front().predicted.count("count"), 0u);
}

TEST(ParallelEngineTest, RejectsNegativeOverrides) {
  Session session = MakePanelSession(1);
  ComplaintSpec complaint = ComplaintSpec::TooHigh("std", "severity").Where("year", "y0");
  EXPECT_EQ(session.RecommendAll({complaint}, BatchOptions().Threads(-1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.RecommendAll({complaint}, BatchOptions().TopK(-2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Session::Create(MakePanel(), ExploreRequest().Threads(-3)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParallelEngineTest, BatchTimingReportsWorkAndWall) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Session session = MakePanelSession(4);
  Result<BatchExploreResponse> batch =
      session.RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(batch->wall_seconds, 0.0);
  EXPECT_GT(batch->train_seconds, 0.0);
  // Summed per-fit durations must equal the per-candidate charges: nothing
  // is double-counted and nothing is lost.
  double charged = 0.0;
  for (const ExploreResponse& response : batch->responses) {
    for (const HierarchyResponse& cand : response.candidates) {
      charged += cand.train_seconds;
      EXPECT_GE(cand.total_seconds, cand.train_seconds);
    }
  }
  EXPECT_NEAR(batch->train_seconds, charged, 1e-9);
  std::string json = batch->ToJson();
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"train_seconds\""), std::string::npos);
}

// Randomized chain datasets (the Section 5.1.3 generator): several seeds,
// engine-level comparison at 1 / 2 / 8 threads.
TEST(ParallelEngineTest, RandomizedDatagenIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    SyntheticOptions options;
    options.num_hierarchies = 3;
    options.attrs_per_hierarchy = 2;
    options.cardinality = 5;
    options.random_branching = true;
    options.seed = seed;
    Dataset dataset = MakeChainDataset(options, /*rows=*/400);

    Complaint complaint;
    complaint.agg = AggFn::kMean;
    complaint.measure_column = dataset.table().ColumnIndex("m");
    complaint.direction = ComplaintDirection::kTooHigh;

    std::vector<Recommendation> reference;
    {
      EngineOptions engine_options;
      engine_options.num_threads = 1;
      Engine engine(&dataset, engine_options);
      reference = engine.RecommendBatch(std::span<const Complaint>(&complaint, 1));
    }
    for (int threads : {2, 8}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      Engine engine(&dataset, engine_options);
      std::vector<Recommendation> got =
          engine.RecommendBatch(std::span<const Complaint>(&complaint, 1));
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].best_index, reference[i].best_index);
        ASSERT_EQ(got[i].candidates.size(), reference[i].candidates.size());
        for (size_t c = 0; c < got[i].candidates.size(); ++c) {
          const HierarchyRecommendation& ca = got[i].candidates[c];
          const HierarchyRecommendation& cb = reference[i].candidates[c];
          EXPECT_EQ(ca.hierarchy, cb.hierarchy);
          EXPECT_EQ(ca.attribute, cb.attribute);
          EXPECT_EQ(ca.best_score, cb.best_score);
          ASSERT_EQ(ca.top_groups.size(), cb.top_groups.size());
          for (size_t g = 0; g < ca.top_groups.size(); ++g) {
            EXPECT_EQ(ca.top_groups[g].description, cb.top_groups[g].description);
            EXPECT_EQ(ca.top_groups[g].key, cb.top_groups[g].key);
            EXPECT_EQ(ca.top_groups[g].score, cb.top_groups[g].score);
            EXPECT_EQ(ca.top_groups[g].repaired_complaint_value,
                      cb.top_groups[g].repaired_complaint_value);
            EXPECT_EQ(ca.top_groups[g].predicted, cb.top_groups[g].predicted);
          }
        }
      }
    }
  }
}

// Drill several levels deep with commits between parallel batches: the
// drill-down cache prefetch must stay coherent with committed state.
TEST(ParallelEngineTest, CommitLoopIdenticalAcrossThreadCounts) {
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Session sequential = MakePanelSession(1);
  Session parallel = MakePanelSession(8);
  for (int round = 0; round < 2; ++round) {
    Result<BatchExploreResponse> a =
        sequential.RecommendAll(std::span<const ComplaintSpec>(complaints));
    Result<BatchExploreResponse> b =
        parallel.RecommendAll(std::span<const ComplaintSpec>(complaints));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    for (size_t i = 0; i < complaints.size(); ++i) {
      ExpectSameResponse(b->responses[i], a->responses[i]);
    }
    ASSERT_TRUE(sequential.Commit("geo").ok());
    ASSERT_TRUE(parallel.Commit("geo").ok());
  }
}

}  // namespace
}  // namespace reptile
