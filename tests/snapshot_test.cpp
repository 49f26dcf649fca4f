// Snapshot correctness at both layers: the container format (magic, version,
// trailer, per-section CRCs, sticky-error readers) and the PreparedDataset
// codec on top of it — lossless warm restarts: a dataset loaded from a
// snapshot answers byte-identically to the one that wrote it, with zero
// fits, and every corruption mode comes back as a clean Status.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "api/dataset_snapshot.h"
#include "data/snapshot.h"
#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "reptile/reptile.h"

namespace reptile {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("reptile_snapshot_test." + name)).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << bytes;
}

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Container layer --------------------------------------------------------

TEST(SnapshotContainer, RoundTripsSectionsByLabel) {
  ScopedFile file(TempPath("container"));
  SnapshotWriter writer;
  ByteWriter a;
  a.U32(7);
  a.Str("hello");
  a.VecF64({1.5, -2.25});
  writer.AddSection("alpha", a.TakeBytes());
  writer.AddSection("beta", std::string("\x00\xff raw", 7));
  ASSERT_TRUE(writer.WriteFile(file.path()).ok());

  Result<SnapshotReader> reader = SnapshotReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->sections(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(reader->Contains("beta"));
  EXPECT_FALSE(reader->Contains("gamma"));
  Result<ByteReader> alpha = reader->Find("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha->U32(), 7u);
  EXPECT_EQ(alpha->Str(), "hello");
  EXPECT_EQ(alpha->VecF64(), (std::vector<double>{1.5, -2.25}));
  EXPECT_TRUE(alpha->AtEnd());
  EXPECT_TRUE(alpha->status().ok());
  EXPECT_FALSE(reader->Find("gamma").ok());
}

TEST(SnapshotContainer, ReaderErrorsAreStickyAndBoundsChecked) {
  ByteWriter w;
  w.U32(42);
  std::string payload = w.TakeBytes();
  ByteReader reader(payload.data(), payload.size(), "test");
  EXPECT_EQ(reader.U32(), 42u);
  // Past the end: latches kParseError, returns zeros forever after.
  EXPECT_EQ(reader.U64(), 0u);
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
  EXPECT_EQ(reader.U32(), 0u);
  EXPECT_TRUE(reader.Str().empty());
  EXPECT_TRUE(reader.VecF64().empty());
}

TEST(SnapshotContainer, CorruptCountCannotForceHugeAllocation) {
  ByteWriter w;
  w.U64(uint64_t{1} << 60);  // claims 2^60 doubles follow
  std::string payload = w.TakeBytes();
  ByteReader reader(payload.data(), payload.size(), "test");
  EXPECT_TRUE(reader.VecF64().empty());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(SnapshotContainer, RejectsBadMagicVersionCrcAndTruncation) {
  ScopedFile file(TempPath("corrupt"));
  SnapshotWriter writer;
  writer.AddSection("payload", std::string(256, 'x'));
  ASSERT_TRUE(writer.WriteFile(file.path()).ok());
  const std::string good = ReadFile(file.path());

  // Flipped magic.
  std::string bad = good;
  bad[0] ^= 0x40;
  WriteFileBytes(file.path(), bad);
  Result<SnapshotReader> r = SnapshotReader::Open(file.path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  // Unknown future version (strict reject).
  bad = good;
  bad[8] = 99;
  WriteFileBytes(file.path(), bad);
  r = SnapshotReader::Open(file.path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  // A flipped payload byte is caught by the section CRC on access.
  bad = good;
  bad[12 + 100] ^= 0x01;  // inside the first (only) payload
  WriteFileBytes(file.path(), bad);
  r = SnapshotReader::Open(file.path());
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // index still intact
  EXPECT_FALSE(r->Find("payload").ok());

  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{11}, good.size() / 2, good.size() - 1}) {
    WriteFileBytes(file.path(), good.substr(0, cut));
    Result<SnapshotReader> truncated = SnapshotReader::Open(file.path());
    EXPECT_FALSE(truncated.ok()) << "cut=" << cut;
  }

  // Missing file is kIoError, not kParseError.
  Result<SnapshotReader> missing = SnapshotReader::Open(TempPath("nope.missing"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// --- PreparedDataset codec ---------------------------------------------------

Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = 4;
  spec.villages_per_district = 3;
  spec.years = 4;
  spec.rows_per_group = 3;
  return MakeSeverityPanel(spec);
}

std::vector<ComplaintSpec> PanelComplaints() {
  std::vector<ComplaintSpec> complaints;
  for (int y = 0; y < 4; ++y) {
    complaints.push_back(
        ComplaintSpec::TooHigh("std", "severity").Where("year", "y" + std::to_string(y)));
  }
  return complaints;
}

std::string TimelessBatchJson(BatchExploreResponse batch) {
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

// Warms a dataset (aggregates + fits), snapshots it, reloads, and asserts
// the loaded dataset answers byte-identically with ZERO fits — the caches
// crossed the file boundary intact.
TEST(DatasetSnapshot, RoundTripIsLosslessAndWarm) {
  ScopedFile file(TempPath("roundtrip.snap"));
  Result<DatasetHandle> original = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(original.ok());
  std::vector<ComplaintSpec> complaints = PanelComplaints();

  Result<Session> cold = Session::Open(original.value());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->Commit("time").ok());
  Result<BatchExploreResponse> cold_batch =
      cold->RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(cold_batch.ok());
  EXPECT_GT(cold->models_trained(), 0);

  ASSERT_TRUE(SavePreparedDataset(**original, file.path()).ok());
  Result<DatasetHandle> loaded = LoadPreparedDataset(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The persisted caches came back: entries, not just data.
  EXPECT_EQ((*loaded)->cache_entries(), (*original)->cache_entries());
  EXPECT_EQ((*loaded)->model_cache_entries(), (*original)->model_cache_entries());

  Result<Session> warm = Session::Open(*loaded);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Commit("time").ok());
  Result<BatchExploreResponse> warm_batch =
      warm->RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(warm_batch.ok());
  EXPECT_EQ(warm->models_trained(), 0) << "snapshot failed to carry fitted models";
  EXPECT_EQ(TimelessBatchJson(*warm_batch), TimelessBatchJson(*cold_batch));
}

// A snapshot of a NEVER-warmed dataset is also valid — it just carries empty
// caches, and the loaded copy trains from scratch to the same answers.
TEST(DatasetSnapshot, ColdSnapshotRoundTripsData) {
  ScopedFile file(TempPath("cold.snap"));
  Result<DatasetHandle> original = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SavePreparedDataset(**original, file.path()).ok());
  Result<DatasetHandle> loaded = LoadPreparedDataset(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->model_cache_entries(), 0);

  std::vector<ComplaintSpec> complaints = PanelComplaints();
  Result<Session> a = Session::Open(original.value());
  Result<Session> b = Session::Open(*loaded);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Commit("time").ok() && b->Commit("time").ok());
  Result<BatchExploreResponse> batch_a =
      a->RecommendAll(std::span<const ComplaintSpec>(complaints));
  Result<BatchExploreResponse> batch_b =
      b->RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(batch_a.ok() && batch_b.ok());
  EXPECT_EQ(TimelessBatchJson(*batch_b), TimelessBatchJson(*batch_a));
}

TEST(DatasetSnapshot, CorruptedFileIsRejectedWithStatusNotUB) {
  ScopedFile file(TempPath("flip.snap"));
  Result<DatasetHandle> original = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(original.ok());

  // Warm it so every section kind (ftrees, models) is present.
  Result<Session> session = Session::Open(original.value());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Commit("time").ok());
  std::vector<ComplaintSpec> complaints = PanelComplaints();
  ASSERT_TRUE(session->RecommendAll(std::span<const ComplaintSpec>(complaints)).ok());
  ASSERT_TRUE(SavePreparedDataset(**original, file.path()).ok());
  const std::string good = ReadFile(file.path());

  // Flip one byte at a spread of offsets across the whole file: every load
  // must fail cleanly (CRC or structural validation) or — only when the flip
  // lands in dead space — succeed; it must never crash.
  for (size_t offset = 13; offset + 16 < good.size(); offset += good.size() / 23) {
    std::string bad = good;
    bad[offset] ^= 0x10;
    WriteFileBytes(file.path(), bad);
    Result<DatasetHandle> loaded = LoadPreparedDataset(file.path());
    if (!loaded.ok()) {
      StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError || code == StatusCode::kIoError)
          << "offset=" << offset << ": " << loaded.status().ToString();
    }
  }

  // Truncations too.
  for (size_t cut : {good.size() / 4, good.size() / 2, good.size() - 3}) {
    WriteFileBytes(file.path(), good.substr(0, cut));
    EXPECT_FALSE(LoadPreparedDataset(file.path()).ok()) << "cut=" << cut;
  }
}

// A snapshot whose measure column holds a non-finite value (a crafted file,
// or one written from a table that never passed CSV validation) is a parse
// error, the same contract CSV ingest enforces.
TEST(DatasetSnapshot, NonFiniteMeasureIsAParseError) {
  ScopedFile file(TempPath("nonfinite.snap"));
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Table table;
    int a = table.AddDimensionColumn("a");
    int m = table.AddMeasureColumn("m");
    for (int row = 0; row < 3; ++row) {
      table.SetDim(a, "v" + std::to_string(row));
      table.SetMeasure(m, row == 1 ? bad : 1.0);
      table.CommitRow();
    }
    Result<Dataset> dataset = Dataset::Make(std::move(table), {HierarchySchema{"h", {"a"}}});
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    Result<DatasetHandle> handle = PreparedDataset::Prepare(std::move(dataset).value());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE(SavePreparedDataset(**handle, file.path()).ok());
    Result<DatasetHandle> loaded = LoadPreparedDataset(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("non-finite measure at row 1"), std::string::npos)
        << loaded.status().ToString();
  }
}

// Budgeted caches under live holders: sessions keep working while their
// entries are evicted beneath them, and reported bytes respect the budget.
TEST(DatasetSnapshot, EvictionUnderBudgetKeepsSessionsCorrect) {
  Result<DatasetHandle> handle = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(handle.ok());
  std::vector<ComplaintSpec> complaints = PanelComplaints();

  // Unbudgeted reference answer.
  Result<Session> reference = Session::Open(handle.value());
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->Commit("time").ok());
  Result<BatchExploreResponse> expected =
      reference->RecommendAll(std::span<const ComplaintSpec>(complaints));
  ASSERT_TRUE(expected.ok());

  // A budget strictly below the warmed working set, so BOTH the aggregate
  // and the model cache are over their thirds and must evict (sized from
  // the actual workload rather than a constant, which would silently stop
  // applying pressure if the test panel shrank).
  const size_t agg_warmed = static_cast<size_t>((*handle)->cache_bytes());
  const size_t model_warmed = static_cast<size_t>((*handle)->model_cache_bytes());
  ASSERT_GT(agg_warmed, 0u);
  ASSERT_GT(model_warmed, 0u);
  const size_t budget = std::min(agg_warmed, model_warmed);
  (*handle)->SetCacheBudgetBytes(budget);
  for (int round = 0; round < 3; ++round) {
    Result<Session> session = Session::Open(handle.value());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->Commit("time").ok());
    Result<BatchExploreResponse> batch =
        session->RecommendAll(std::span<const ComplaintSpec>(complaints));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(TimelessBatchJson(*batch), TimelessBatchJson(*expected));
    EXPECT_LE(static_cast<size_t>((*handle)->cache_bytes() + (*handle)->model_cache_bytes() +
                                  (*handle)->group_stats_cache_bytes()),
              budget);
  }
  // Both caches started over their halves of the budget, so each must have
  // evicted; a sum would pass with one of them never evicting.
  EXPECT_GT((*handle)->cache_evictions(), 0);
  EXPECT_GT((*handle)->model_cache_evictions(), 0);
}

}  // namespace
}  // namespace reptile
