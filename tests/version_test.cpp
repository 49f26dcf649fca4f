// The incremental-version subsystem (version/, api/registry.h chains):
// "name@vK" parsing, the MatchedPrefixDepth dirty planner, AppendRowsCsv's
// dirty analysis and schema gate, the append-vs-cold-rebuild byte
// differential and work counts, pinned-session isolation across appends,
// version-chain resolution/GC/counters in DatasetRegistry, the concurrent
// append-vs-recommend race scripts/check.sh re-runs under TSan, and the
// flattened snapshot round-trip of an appended head.

#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/dataset_snapshot.h"
#include "data/csv.h"
#include "datagen/panel_gen.h"
#include "factor/agg_cache.h"
#include "factor/ftree.h"
#include "gtest/gtest.h"
#include "reptile/reptile.h"
#include "sim/oracle.h"
#include "version/append.h"
#include "version/version.h"

namespace reptile {
namespace {

// Panel naming: districts d0..d3, villages dX_v0..dX_v2, years y0..y3.
// Hierarchy 0 is geo (district > village, depth 2), hierarchy 1 is time
// (year, depth 1).
constexpr int kGeo = 0;
constexpr int kTime = 1;

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

std::string TimelessJson(ExploreResponse response) {
  for (HierarchyResponse& candidate : response.candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
  return response.ToJson();
}

// Severity values in the deltas are dyadic rationals so the CSV round trip
// through RenderTableCsv re-parses to bit-identical doubles.
constexpr char kNewVillageDelta[] =
    "district,village,year,severity\n"
    "d0,d0_x,y0,5.5\n";

// Data rows of a delta CSV (everything after the header line).
std::string DataRows(const std::string& delta_csv) {
  return delta_csv.substr(delta_csv.find('\n') + 1);
}

DatasetHandle PrepareFromCsv(const std::string& csv) {
  CsvSpec spec;
  spec.dimension_columns = {"district", "village", "year"};
  spec.measure_columns = {"severity"};
  CsvStreamParser parser(spec, "test csv");
  parser.Feed(csv);
  Result<Table> table = parser.Finish();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  Result<Dataset> dataset = Dataset::Make(
      std::move(table).value(), {{"geo", {"district", "village"}}, {"time", {"year"}}});
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  Result<DatasetHandle> handle = PreparedDataset::Prepare(std::move(dataset).value());
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return std::move(handle).value();
}

TEST(VersionName, ParsesAndFormatsTheAtVSpelling) {
  std::string base;
  int64_t version = 0;
  ASSERT_TRUE(ParseVersionedName("sales@v3", &base, &version));
  EXPECT_EQ(base, "sales");
  EXPECT_EQ(version, 3);
  ASSERT_TRUE(ParseVersionedName("panel@v12", &base, &version));
  EXPECT_EQ(base, "panel");
  EXPECT_EQ(version, 12);

  // The LAST "@v" wins, so chained spellings still parse.
  ASSERT_TRUE(ParseVersionedName("a@v2@v3", &base, &version));
  EXPECT_EQ(base, "a@v2");
  EXPECT_EQ(version, 3);

  // Not versioned names: plain, empty base, zero, junk digits, bare suffix.
  EXPECT_FALSE(ParseVersionedName("sales", &base, &version));
  EXPECT_FALSE(ParseVersionedName("@v2", &base, &version));
  EXPECT_FALSE(ParseVersionedName("sales@v0", &base, &version));
  EXPECT_FALSE(ParseVersionedName("sales@vx", &base, &version));
  EXPECT_FALSE(ParseVersionedName("sales@v", &base, &version));
  EXPECT_FALSE(ParseVersionedName("sales@v1x", &base, &version));

  EXPECT_EQ(FormatVersionedName("sales", 3), "sales@v3");
  std::string roundtrip = FormatVersionedName("panel", 7);
  ASSERT_TRUE(ParseVersionedName(roundtrip, &base, &version));
  EXPECT_EQ(base, "panel");
  EXPECT_EQ(version, 7);
}

// The dirty planner's primitive: a delta row matched to m levels introduces
// new distinct prefixes of every length > m, so MatchedPrefixDepth must
// report exactly how deep a path is already known.
TEST(FTreeMatchedPrefix, ReportsTheShallowestNovelLevel) {
  // The Figure 4 geo shape: villages {0, 1} under d0, village {2} under d1.
  FTree geo = FTree::FromPaths({{0, 0}, {0, 1}, {1, 2}}, 2);
  const std::vector<int32_t> known = {0, 1};
  const std::vector<int32_t> new_village = {1, 0};  // d1 exists, village 0 under it doesn't
  const std::vector<int32_t> new_district = {7, 0};
  EXPECT_EQ(geo.MatchedPrefixDepth(known.data(), 2), 2);
  EXPECT_EQ(geo.MatchedPrefixDepth(new_village.data(), 2), 1);
  EXPECT_EQ(geo.MatchedPrefixDepth(new_district.data(), 2), 0);

  FTree time = FTree::FromPaths({{0}, {1}}, 1);
  const std::vector<int32_t> known_year = {1};
  const std::vector<int32_t> new_year = {9};
  EXPECT_EQ(time.MatchedPrefixDepth(known_year.data(), 1), 1);
  EXPECT_EQ(time.MatchedPrefixDepth(new_year.data(), 1), 0);
}

// A new village under an existing district dirties ONLY (geo, 2): depth 1's
// distinct districts are unchanged and time never sees a new year, so both
// keep the parent's epoch — same cache keys, zero rebuilds there.
TEST(AppendRowsCsv, NewVillageDirtiesOnlyTheDeepGeoSubtree) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  const size_t base_rows = (*v1)->table().num_rows();

  Result<AppendResult> appended = AppendRowsCsv(*v1, kNewVillageDelta);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended_rows, 1u);
  EXPECT_EQ(appended->total_rows, base_rows + 1);
  EXPECT_EQ(appended->child->version(), 2);
  EXPECT_EQ(appended->child->version_token(), "2");
  EXPECT_EQ((*v1)->version_token(), "");

  // geo dirties from depth 2, time stays fully clean (depth + 1).
  ASSERT_EQ(appended->dirty_from.size(), 2u);
  EXPECT_EQ(appended->dirty_from[kGeo], 2);
  EXPECT_EQ(appended->dirty_from[kTime], 2);
  EXPECT_EQ(appended->invalidated_entries, 1);
  EXPECT_EQ(appended->shared_entries, 2);

  // Epochs: clean (h, d) keep the parent's epoch — same cache key — and the
  // dirtied one moves to the child's version id.
  const AggregateEpochs& epochs = appended->child->epochs();
  EXPECT_EQ(epochs.at(kGeo, 1), 1);
  EXPECT_EQ(epochs.at(kGeo, 2), 2);
  EXPECT_EQ(epochs.at(kTime, 1), 1);

  // Structural sharing is literal: one cache object for the whole chain.
  EXPECT_EQ(&appended->child->cache(), &(*v1)->cache());
  EXPECT_EQ(&appended->child->model_cache(), &(*v1)->model_cache());
}

TEST(AppendRowsCsv, NewDistrictAndNewYearDirtyFromTheRoot) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());

  // A new district invalidates both geo depths; time (existing year) is clean.
  Result<AppendResult> new_district = AppendRowsCsv(
      *v1, "district,village,year,severity\nd9,d9_v0,y0,4.5\n");
  ASSERT_TRUE(new_district.ok()) << new_district.status().ToString();
  EXPECT_EQ(new_district->dirty_from[kGeo], 1);
  EXPECT_EQ(new_district->dirty_from[kTime], 2);
  EXPECT_EQ(new_district->invalidated_entries, 2);
  EXPECT_EQ(new_district->shared_entries, 1);
  EXPECT_EQ(new_district->child->epochs().at(kGeo, 1), 2);
  EXPECT_EQ(new_district->child->epochs().at(kGeo, 2), 2);
  EXPECT_EQ(new_district->child->epochs().at(kTime, 1), 1);

  // A new year under an existing (district, village) leaves geo fully clean.
  Result<AppendResult> new_year = AppendRowsCsv(
      *v1, "district,village,year,severity\nd0,d0_v0,y9,7.125\n");
  ASSERT_TRUE(new_year.ok()) << new_year.status().ToString();
  EXPECT_EQ(new_year->dirty_from[kGeo], 3);
  EXPECT_EQ(new_year->dirty_from[kTime], 1);
  EXPECT_EQ(new_year->invalidated_entries, 1);
  EXPECT_EQ(new_year->shared_entries, 2);
  EXPECT_EQ(new_year->child->epochs().at(kGeo, 1), 1);
  EXPECT_EQ(new_year->child->epochs().at(kGeo, 2), 1);
  EXPECT_EQ(new_year->child->epochs().at(kTime, 1), 2);
}

// The schema gate: appends cannot change the column set (and thereby the
// hierarchy shape), and the 400 names the exact offending column.
TEST(AppendRowsCsv, SchemaChangingAppendsAreRejectedByColumn) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());

  Result<AppendResult> missing = AppendRowsCsv(
      *v1, "district,village,year\nd0,d0_x,y0\n");
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.status().ToString().find("missing column 'severity'"),
            std::string::npos)
      << missing.status().ToString();

  Result<AppendResult> unknown = AppendRowsCsv(
      *v1, "district,village,year,severity,extra\nd0,d0_x,y0,5.5,1\n");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().ToString().find("unknown column 'extra'"),
            std::string::npos)
      << unknown.status().ToString();

  Result<AppendResult> empty = AppendRowsCsv(
      *v1, "district,village,year,severity\n");
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.status().ToString().find("no data rows"), std::string::npos)
      << empty.status().ToString();

  EXPECT_EQ(AppendRowsCsv(DatasetHandle(), kNewVillageDelta).status().code(),
            StatusCode::kInvalidArgument);

  // Column ORDER is not schema: a reordered header appends fine.
  Result<AppendResult> reordered = AppendRowsCsv(
      *v1, "severity,year,village,district\n5.5,y0,d0_x,d0\n");
  ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
  EXPECT_EQ(reordered->appended_rows, 1u);
  EXPECT_EQ(reordered->dirty_from[kGeo], 2);
}

// The schema gate and the parser split a header the same way
// (SplitCsvHeader): an exported delta with a BOM, CRLF line endings and its
// columns reordered appends exactly like the plain LF delta in the dataset's
// own column order.
TEST(AppendRowsCsv, BomCrlfAndReorderedHeaderAppendLikeThePlainDelta) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  const std::string plain =
      "district,village,year,severity\n"
      "d0,d0_x,y0,5.5\n"
      "d2,d2_v1,y9,6.25\n";
  const std::string exported =
      "\xEF\xBB\xBF" "year,severity,village,district\r\n"
      "y0,5.5,d0_x,d0\r\n"
      "y9,6.25,d2_v1,d2\r\n";
  Result<AppendResult> a = AppendRowsCsv(*v1, plain);
  Result<AppendResult> b = AppendRowsCsv(*v1, exported);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->appended_rows, 2u);
  EXPECT_EQ(b->total_rows, a->total_rows);
  EXPECT_EQ(b->dirty_from, a->dirty_from);
  EXPECT_EQ(b->dirty_from[kGeo], 2);   // a new village under a known district
  EXPECT_EQ(b->dirty_from[kTime], 1);  // a new year
  EXPECT_EQ(b->invalidated_entries, a->invalidated_entries);
  EXPECT_EQ(b->shared_entries, a->shared_entries);
  const Table& want = a->child->table();
  const Table& got = b->child->table();
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (int c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got.column_name(c), want.column_name(c));
    ASSERT_EQ(got.is_dimension(c), want.is_dimension(c));
    if (!want.is_dimension(c)) {
      EXPECT_EQ(got.measure(c), want.measure(c));
      continue;
    }
    EXPECT_EQ(got.dim_codes(c), want.dim_codes(c));
    ASSERT_EQ(got.dict(c).size(), want.dict(c).size());
    for (int32_t code = 0; code < want.dict(c).size(); ++code) {
      EXPECT_EQ(got.dict(c).name(code), want.dict(c).name(code));
    }
  }
}

// The tentpole differential: every version built incrementally must answer
// byte-identically to a COLD dataset built from the concatenated CSV — at
// the shallow state and after drilling into the dirtied hierarchy.
TEST(AppendRowsCsv, ChainMatchesColdRebuildByteForByte) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  const std::string base_csv = RenderTableCsv((*v1)->table());
  const std::string delta_a =
      "district,village,year,severity\n"
      "d0,d0_x,y0,5.5\n"
      "d1,d1_x,y1,6.25\n";
  const std::string delta_b =
      "district,village,year,severity\n"
      "d9,d9_v0,y0,4.5\n"
      "d0,d0_v0,y9,7.125\n";

  Result<AppendResult> second = AppendRowsCsv(*v1, delta_a);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  Result<AppendResult> third = AppendRowsCsv(second->child, delta_b);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->child->version(), 3);

  struct Pair {
    DatasetHandle incremental;
    DatasetHandle cold;
  };
  const std::vector<Pair> pairs = {
      {second->child, PrepareFromCsv(base_csv + DataRows(delta_a))},
      {third->child, PrepareFromCsv(base_csv + DataRows(delta_a) + DataRows(delta_b))},
  };
  for (size_t p = 0; p < pairs.size(); ++p) {
    Result<Session> incremental = Session::Open(pairs[p].incremental);
    Result<Session> cold = Session::Open(pairs[p].cold);
    ASSERT_TRUE(incremental.ok() && cold.ok());
    ASSERT_TRUE(incremental->Commit("time").ok() && cold->Commit("time").ok());
    for (int y = 0; y < 4; ++y) {
      Result<ExploreResponse> a = incremental->Recommend(YearComplaint(y));
      Result<ExploreResponse> b = cold->Recommend(YearComplaint(y));
      ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString() << b.status().ToString();
      EXPECT_EQ(TimelessJson(*a), TimelessJson(*b))
          << "version " << p + 2 << " diverged from its cold rebuild at year " << y;
    }
    // Drill into geo — the hierarchy the deltas dirtied — and compare there.
    ASSERT_TRUE(incremental->Commit("geo").ok() && cold->Commit("geo").ok());
    ComplaintSpec deep = ComplaintSpec::TooHigh("mean", "severity").Where("district", "d1");
    Result<ExploreResponse> a = incremental->Recommend(deep);
    Result<ExploreResponse> b = cold->Recommend(deep);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(TimelessJson(*a), TimelessJson(*b))
        << "version " << p + 2 << " diverged after drilling geo";
  }
}

// Group statistics belong to one dataset version. Rows appended under
// existing paths dirty no f-tree (invalidated_entries == 0), yet they change
// group moments, so the child must read none of the statistics its parent
// cached — neither through a chain-shared cache nor under keys that carry
// the (unchanged) aggregate epochs — and must answer like a cold rebuild at
// every depth the parent was warmed at.
TEST(AppendRowsCsv, GroupStatisticsBelongToOneVersion) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  Result<Session> warm = Session::Open(*v1);
  ASSERT_TRUE(warm.ok());
  for (const char* hierarchy : {"time", "geo"}) {
    ASSERT_TRUE(warm->Commit(hierarchy).ok());
    for (int y = 0; y < 4; ++y) ASSERT_TRUE(warm->Recommend(YearComplaint(y)).ok());
  }
  EXPECT_GT((*v1)->group_stats_cache_entries(), 0);

  const std::string delta =
      "district,village,year,severity\n"
      "d0,d0_v0,y0,50.5\n"
      "d1,d1_v1,y1,0.25\n"
      "d2,d2_v2,y2,40.75\n"
      "d3,d3_v0,y3,12.125\n";
  Result<AppendResult> appended = AppendRowsCsv(*v1, delta);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->invalidated_entries, 0);
  EXPECT_EQ(appended->child->group_stats_cache_entries(), 0);

  DatasetHandle cold = PrepareFromCsv(RenderTableCsv((*v1)->table()) + DataRows(delta));
  Result<Session> child = Session::Open(appended->child);
  Result<Session> rebuilt = Session::Open(cold);
  ASSERT_TRUE(child.ok() && rebuilt.ok());
  for (const char* hierarchy : {"time", "geo"}) {
    ASSERT_TRUE(child->Commit(hierarchy).ok() && rebuilt->Commit(hierarchy).ok());
    for (int y = 0; y < 4; ++y) {
      Result<ExploreResponse> a = child->Recommend(YearComplaint(y));
      Result<ExploreResponse> b = rebuilt->Recommend(YearComplaint(y));
      ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString() << b.status().ToString();
      EXPECT_EQ(TimelessJson(*a), TimelessJson(*b))
          << "the child diverged from its cold rebuild with " << hierarchy
          << " committed, year " << y;
    }
  }
}

// Pinned-session isolation: sessions opened over the parent before an append
// keep answering the same bytes, from fully warm caches — the append flushed
// nothing they read.
TEST(AppendRowsCsv, PinnedSessionsAreUndisturbedByAppends) {
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  Result<Session> pinned = Session::Open(*v1);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned->Commit("time").ok());
  ASSERT_TRUE(pinned->Commit("geo").ok());
  Result<ExploreResponse> before = pinned->Recommend(YearComplaint(1));
  ASSERT_TRUE(before.ok());
  const std::string before_bytes = TimelessJson(*before);
  const int64_t builds_before = pinned->aggregate_builds();
  const int64_t trained_before = pinned->models_trained();
  EXPECT_GT(builds_before, 0);

  Result<AppendResult> appended = AppendRowsCsv(*v1, kNewVillageDelta);
  ASSERT_TRUE(appended.ok());

  // Same session, same bytes, not one build or fit more.
  Result<ExploreResponse> after = pinned->Recommend(YearComplaint(1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(TimelessJson(*after), before_bytes);
  EXPECT_EQ(pinned->aggregate_builds(), builds_before);
  EXPECT_EQ(pinned->models_trained(), trained_before);

  // A FRESH session over the pinned version finds everything resident too:
  // the append invalidated by moving epochs, not by flushing.
  Result<Session> warm = Session::Open(*v1);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->RestoreCommitted({{"time", 1}, {"geo", 1}}).ok());
  Result<ExploreResponse> fresh = warm->Recommend(YearComplaint(1));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(TimelessJson(*fresh), before_bytes);
  EXPECT_EQ(warm->aggregate_builds(), 0);
  EXPECT_EQ(warm->models_trained(), 0);
}

// An analyst over `handle` with time committed and geo drilled `geo_depth`
// levels.
Result<Session> OpenAnalyst(const DatasetHandle& handle, int geo_depth) {
  Result<Session> session = Session::Open(handle);
  if (!session.ok()) return session;
  Status restored = session->RestoreCommitted({{"time", 1}, {"geo", geo_depth}});
  if (!restored.ok()) return restored;
  return session;
}

// The append's reason to exist, in work counts. The same traffic runs in
// two worlds: a shallow and a deep analyst run the full batch before and
// after three delta rows land, and a fresh deep analyst probes the new head.
// The version chain absorbs the delta with strictly fewer f-tree builds and
// model fits than rebuilding from the concatenated CSV with every analyst
// starting cold, builds only inside the subtrees the delta dirtied, and
// moves no bytes: the head answers like the rebuild, the pinned analyst
// like before.
TEST(AppendRowsCsv, AppendDoesStrictlyLessWorkThanAColdRebuild) {
  // New villages under known districts and years: only (geo, 2) dirties.
  const std::string delta =
      "district,village,year,severity\n"
      "d0,d0_x,y0,1.5\n"
      "d1,d1_x,y1,2.75\n"
      "d2,d2_x,y2,3.5\n";
  std::vector<ComplaintSpec> full;
  for (int y = 0; y < 4; ++y) full.push_back(YearComplaint(y));
  const std::span<const ComplaintSpec> probe(full.data(), 2);

  // A shallow analyst (geo at the root) and a deep one (geo drilled a
  // level, so it reads (geo, 2)), each running the full batch over `handle`.
  auto analysts = [&full](const DatasetHandle& handle) {
    std::vector<Session> sessions;
    for (int geo_depth : {0, 1}) {
      Result<Session> session = OpenAnalyst(handle, geo_depth);
      EXPECT_TRUE(session.ok() && session->RecommendAll(full).ok());
      if (session.ok()) sessions.push_back(std::move(session).value());
    }
    return sessions;
  };
  auto bytes = [](Session& session, const ComplaintSpec& complaint) {
    Result<ExploreResponse> response = session.Recommend(complaint);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? TimelessJson(*response) : std::string();
  };

  // Versioned: the analysts warm v1 and stay pinned to it.
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  std::vector<Session> pinned = analysts(*v1);
  ASSERT_EQ(pinned.size(), 2u);
  const std::string pinned_before = bytes(pinned[1], full[0]);

  // From here on every build and fit is the price of the delta. v1 and v2
  // share the cache objects, so v1's counters cover both.
  const int64_t builds_before = (*v1)->cache_misses();
  const int64_t fits_before = (*v1)->model_cache_fits();
  Result<AppendResult> appended = AppendRowsCsv(*v1, delta);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->invalidated_entries, 1);
  for (Session& session : pinned) ASSERT_TRUE(session.RecommendAll(full).ok());
  Result<Session> head = OpenAnalyst(appended->child, 1);
  ASSERT_TRUE(head.ok() && head->RecommendAll(probe).ok());
  const int64_t builds_append = (*v1)->cache_misses() - builds_before;
  const int64_t fits_append = (*v1)->model_cache_fits() - fits_before;

  // Unversioned: the same traffic on a cold rebuild.
  DatasetHandle cold = PrepareFromCsv(RenderTableCsv((*v1)->table()) + DataRows(delta));
  analysts(cold);
  Result<Session> cold_head = OpenAnalyst(cold, 1);
  ASSERT_TRUE(cold_head.ok() && cold_head->RecommendAll(probe).ok());

  EXPECT_LT(builds_append, cold->cache_misses());
  EXPECT_LT(fits_append, cold->model_cache_fits());
  EXPECT_LE(builds_append, appended->invalidated_entries)
      << "an f-tree was rebuilt outside the subtrees the delta dirtied";
  for (const ComplaintSpec& complaint : probe) {
    EXPECT_EQ(bytes(*head, complaint), bytes(*cold_head, complaint));
  }
  EXPECT_EQ(bytes(pinned[1], full[0]), pinned_before);
}

// DatasetRegistry's chain mechanics: head/@vK resolution, AppendVersion's
// succession check and counters, the unpinned-ancestor GC (inline and via
// CollectGarbage), VersionSummaries, and Remove dropping the whole chain.
TEST(DatasetRegistry, VersionChainsResolveAppendAndRetire) {
  DatasetRegistry registry;
  Result<DatasetHandle> v1 = registry.Add("panel", MakePanel());
  ASSERT_TRUE(v1.ok());

  // Resolution: plain name and @v1 are the same handle; other versions 404.
  Result<DatasetHandle> head = registry.Find("panel");
  Result<DatasetHandle> pinned = registry.Find("panel@v1");
  ASSERT_TRUE(head.ok() && pinned.ok());
  EXPECT_EQ(head->get(), v1->get());
  EXPECT_EQ(pinned->get(), v1->get());
  EXPECT_EQ(registry.Find("panel@v2").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Find("panel@v0").status().code(), StatusCode::kNotFound);

  Result<AppendResult> appended = AppendRowsCsv(*v1, kNewVillageDelta);
  ASSERT_TRUE(appended.ok());
  Result<int64_t> retired =
      registry.AppendVersion("panel", appended->child, appended->invalidated_entries);
  ASSERT_TRUE(retired.ok()) << retired.status().ToString();
  // This test still holds v1 handles, so the inline sweep retires nothing.
  EXPECT_EQ(*retired, 0);
  EXPECT_EQ(registry.cache_invalidations(), appended->invalidated_entries);
  EXPECT_EQ(registry.versions_gc(), 0);

  // Head moved; the parent is still addressable while pinned.
  Result<DatasetHandle> new_head = registry.Find("panel");
  ASSERT_TRUE(new_head.ok());
  EXPECT_EQ((*new_head)->version(), 2);
  EXPECT_TRUE(registry.Find("panel@v1").ok());

  std::vector<DatasetVersionSummary> summaries = registry.VersionSummaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].name, "panel");
  EXPECT_EQ(summaries[0].head, 2);
  EXPECT_EQ(summaries[0].live, (std::vector<int64_t>{1, 2}));

  // A stale append (child built from v1 while the head is already v2) lost
  // the race and must be refused, not spliced in.
  Result<AppendResult> stale = AppendRowsCsv(*v1, kNewVillageDelta);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(registry
                .AppendVersion("panel", stale->child, stale->invalidated_entries)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // Drop every v1 pin, re-sweep: now the ancestor retires and @v1 is gone.
  v1 = Status::NotFound("dropped");
  head = Status::NotFound("dropped");
  pinned = Status::NotFound("dropped");
  Result<int64_t> collected = registry.CollectGarbage("panel");
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, 1);
  EXPECT_EQ(registry.versions_gc(), 1);
  EXPECT_EQ(registry.Find("panel@v1").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Find("panel").ok());
  // Idempotent: nothing left to collect.
  Result<int64_t> again = registry.CollectGarbage("panel");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
  EXPECT_EQ(registry.CollectGarbage("nope").status().code(), StatusCode::kNotFound);

  // Remove drops the WHOLE chain under the name, not just the head.
  ASSERT_TRUE(registry.Remove("panel").ok());
  EXPECT_EQ(registry.Find("panel").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Find("panel@v2").status().code(), StatusCode::kNotFound);
  // The removed head stays alive through the handle the append returned.
  EXPECT_EQ(appended->child->table().num_rows(), 4u * 3u * 4u * 3u + 1u);
}

// A retired version takes its fitted models with it. Version GC drops a
// version's handle, and the model cache is shared along the chain, so the
// keys only that version could read (Engine::FitCacheKey's version
// component) are erased when it is destroyed; otherwise every append would
// leave one more version's fits resident for good. Each round: one std
// recommend on the head (one plan, three primitives), then an append that
// retires it.
TEST(DatasetRegistry, RetiredVersionsTakeTheirFittedModelsWithThem) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Add("panel", MakePanel()).ok());
  for (int round = 1; round <= 5; ++round) {
    Result<DatasetHandle> head = registry.Find("panel");
    ASSERT_TRUE(head.ok());
    {
      Result<Session> session = Session::Open(*head);
      ASSERT_TRUE(session.ok() && session->Commit("time").ok());
      ASSERT_TRUE(session->Recommend(YearComplaint(1)).ok());
    }
    EXPECT_EQ((*head)->model_cache_entries(), 3) << "round " << round;
    Result<AppendResult> appended = AppendRowsCsv(
        *head, "district,village,year,severity\nd0,d0_v0,y0," + std::to_string(round) + ".5\n");
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    head = Status::NotFound("dropped");  // only the chain holds the parent now
    Result<int64_t> retired =
        registry.AppendVersion("panel", appended->child, appended->invalidated_entries);
    ASSERT_TRUE(retired.ok()) << retired.status().ToString();
    EXPECT_EQ(*retired, 1);
    EXPECT_EQ(appended->child->model_cache_entries(), 0) << "round " << round;
  }
  EXPECT_EQ(registry.versions_gc(), 5);
}

// The TSan half: readers pinned to v1 validate bytes against a golden while
// another thread appends v2 and v3 through the registry and head readers
// open whatever version is current. The shared cache, the epoch table, and
// the chain map are all racing underneath.
TEST(DatasetRegistry, ConcurrentAppendAndPinnedRecommends) {
  DatasetRegistry registry;
  Result<DatasetHandle> v1 = registry.Add("panel", MakePanel());
  ASSERT_TRUE(v1.ok());

  // Golden bytes from a private copy so the shared cache starts cold.
  Result<Session> golden = Session::Create(MakePanel());
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(golden->Commit("time").ok());
  Result<ExploreResponse> golden_response = golden->Recommend(YearComplaint(1));
  ASSERT_TRUE(golden_response.ok());
  const std::string expected = TimelessJson(*golden_response);

  constexpr int kReaders = 3;
  constexpr int kIterations = 4;
  std::vector<int> failures(kReaders + 2, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        Result<Session> session = Session::Open(*v1);
        if (!session.ok() || !session->Commit("time").ok()) {
          ++failures[t];
          continue;
        }
        Result<ExploreResponse> response = session->Recommend(YearComplaint(1));
        if (!response.ok() || TimelessJson(*response) != expected) ++failures[t];
      }
    });
  }
  // The appender: two successive versions, each a new village under d0.
  workers.emplace_back([&] {
    for (int k = 1; k <= 2; ++k) {
      Result<DatasetHandle> parent = registry.Find("panel");
      if (!parent.ok()) {
        ++failures[kReaders];
        return;
      }
      Result<AppendResult> appended = AppendRowsCsv(
          *parent, "district,village,year,severity\nd0,d0_a" + std::to_string(k) +
                       ",y0,5.5\n");
      if (!appended.ok()) {
        ++failures[kReaders];
        return;
      }
      if (!registry.AppendVersion("panel", appended->child, appended->invalidated_entries)
               .ok()) {
        ++failures[kReaders];
      }
    }
  });
  // A head reader: opens whatever version is current and recommends.
  workers.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      Result<DatasetHandle> current = registry.Find("panel");
      if (!current.ok()) {
        ++failures[kReaders + 1];
        continue;
      }
      Result<Session> session = Session::Open(*current);
      if (!session.ok() || !session->Commit("time").ok()) {
        ++failures[kReaders + 1];
        continue;
      }
      if (!session->Recommend(YearComplaint(1)).ok()) ++failures[kReaders + 1];
    }
  });
  for (std::thread& worker : workers) worker.join();
  for (size_t t = 0; t < failures.size(); ++t) {
    EXPECT_EQ(failures[t], 0) << "worker " << t << " failed or diverged";
  }

  Result<DatasetHandle> final_head = registry.Find("panel");
  ASSERT_TRUE(final_head.ok());
  EXPECT_EQ((*final_head)->version(), 3);
  EXPECT_TRUE(registry.Find("panel@v1").ok());  // this test still pins v1
}

// Snapshot satellite: persisting an appended head writes it FLATTENED — the
// restore is version 1 of a fresh chain (lineage is not persisted) — but the
// bytes it answers and the fitted models it carries survive intact.
TEST(VersionSnapshot, AppendedHeadRoundTripsFlattenedAndWarm) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "reptile_version_test.head.snap").string();
  Result<DatasetHandle> v1 = PreparedDataset::Prepare(MakePanel());
  ASSERT_TRUE(v1.ok());
  Result<AppendResult> appended = AppendRowsCsv(*v1, kNewVillageDelta);
  ASSERT_TRUE(appended.ok());
  const DatasetHandle& v2 = appended->child;

  // Warm v2 so the snapshot has version-2 aggregates and models to carry.
  Result<Session> warm = Session::Open(v2);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->Commit("time").ok());
  Result<ExploreResponse> original = warm->Recommend(YearComplaint(1));
  ASSERT_TRUE(original.ok());
  EXPECT_GT(warm->models_trained(), 0);

  ASSERT_TRUE(SavePreparedDataset(*v2, path).ok());
  Result<DatasetHandle> loaded = LoadPreparedDataset(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Flattened: the restored dataset is version 1 again, with v1-spelled keys.
  EXPECT_EQ((*loaded)->version(), 1);
  EXPECT_EQ((*loaded)->version_token(), "");
  EXPECT_EQ((*loaded)->table().num_rows(), v2->table().num_rows());

  // And warm: same bytes, zero fits — the "|v:2" keys were re-spelled so the
  // restored chain finds them under its own naming.
  Result<Session> restored = Session::Open(*loaded);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->Commit("time").ok());
  Result<ExploreResponse> replay = restored->Recommend(YearComplaint(1));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(TimelessJson(*replay), TimelessJson(*original));
  EXPECT_EQ(restored->models_trained(), 0)
      << "snapshot failed to carry the appended head's fitted models";
}

}  // namespace
}  // namespace reptile
