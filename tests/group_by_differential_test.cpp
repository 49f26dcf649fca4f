// GroupByDifferential: the flat GroupBy, sibling selection from an
// unfiltered GroupBy, and the index-based RankGroups against verbatim copies
// of what they replaced (a GroupBy indexed by an unordered_map of key
// vectors, and a RankGroups that scored one ScoredGroup per sibling), over
// seeded random small tables. Every case must give the same groups in the
// same order with bit-equal Moments, agree on Find, select exactly the
// filtered GroupBy's groups, and rank in the same order with bit-equal
// scores and repairs.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/ranker.h"
#include "core/repair.h"
#include "data/group_by.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

// ---- The reference: the replaced GroupBy and RankGroups, verbatim apart
// from their names ----

class ReferenceGroupByResult {
 public:
  size_t num_groups() const { return stats_.size(); }

  int32_t key(size_t g, size_t k) const { return keys_[g][k]; }
  const std::vector<int32_t>& key_tuple(size_t g) const { return keys_[g]; }

  const Moments& stats(size_t g) const { return stats_[g]; }
  Moments& mutable_stats(size_t g) { return stats_[g]; }

  std::optional<size_t> Find(const std::vector<int32_t>& key_tuple) const {
    auto it = index_.find(key_tuple);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  size_t GetOrAddGroup(const std::vector<int32_t>& key_tuple) {
    auto [it, inserted] = index_.emplace(key_tuple, keys_.size());
    if (inserted) {
      keys_.push_back(key_tuple);
      stats_.emplace_back();
    }
    return it->second;
  }

 private:
  struct TupleHash {
    size_t operator()(const std::vector<int32_t>& key) const {
      size_t h = 1469598103934665603ull;
      for (int32_t v : key) {
        h ^= static_cast<size_t>(static_cast<uint32_t>(v));
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  std::vector<std::vector<int32_t>> keys_;
  std::vector<Moments> stats_;
  std::unordered_map<std::vector<int32_t>, size_t, TupleHash> index_;
};

ReferenceGroupByResult ReferenceGroupBy(const Table& table, const std::vector<int>& key_columns,
                                        int measure_column, const RowFilter& filter) {
  ReferenceGroupByResult result;
  std::vector<const std::vector<int32_t>*> key_codes;
  key_codes.reserve(key_columns.size());
  for (int column : key_columns) key_codes.push_back(&table.dim_codes(column));
  const std::vector<double>* measures =
      measure_column >= 0 ? &table.measure(measure_column) : nullptr;

  std::vector<int32_t> key(key_columns.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!filter.empty() && !table.Matches(filter, row)) continue;
    for (size_t k = 0; k < key_codes.size(); ++k) key[k] = (*key_codes[k])[row];
    size_t group = result.GetOrAddGroup(key);
    double value = measures != nullptr ? (*measures)[row] : 0.0;
    result.mutable_stats(group).Observe(value);
  }
  return result;
}

std::vector<ScoredGroup> ReferenceRankGroups(const ReferenceGroupByResult& siblings,
                                             const GroupPredictions& predictions,
                                             const Complaint& complaint) {
  REPTILE_CHECK_EQ(siblings.num_groups(), predictions.size());
  Moments total;
  for (size_t g = 0; g < siblings.num_groups(); ++g) total.Add(siblings.stats(g));

  std::vector<ScoredGroup> scored;
  scored.reserve(siblings.num_groups());
  for (size_t g = 0; g < siblings.num_groups(); ++g) {
    ScoredGroup sg;
    sg.key = siblings.key_tuple(g);
    sg.observed = siblings.stats(g);
    sg.repaired = ApplyRepair(sg.observed, predictions[g]);
    // t'_c = G(V' \ {t} u {frepair(t)}): subtract the observed sketch, add
    // the repaired one.
    Moments repaired_total = total;
    repaired_total.Subtract(sg.observed);
    repaired_total.Add(sg.repaired);
    sg.repaired_complaint_value = repaired_total.Value(complaint.agg);
    sg.score = complaint.Score(sg.repaired_complaint_value);
    scored.push_back(std::move(sg));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) { return a.score < b.score; });
  return scored;
}

// ---- Helpers ----

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool SameMoments(const Moments& a, const Moments& b) {
  return Bits(a.count) == Bits(b.count) && Bits(a.sum) == Bits(b.sum) &&
         Bits(a.sumsq) == Bits(b.sumsq);
}

constexpr int kMaxDims = 5;

// A random small table: 1-5 dimension columns of cardinality 1-5 and one
// measure column with repeated values, 0-60 rows.
struct RandomTable {
  Table table;
  std::vector<int> dims;
  std::vector<int32_t> cardinality;
  int measure = -1;
};

RandomTable MakeTable(Rng* rng) {
  RandomTable t;
  const int num_dims = static_cast<int>(rng->UniformInt(1, kMaxDims));
  for (int d = 0; d < num_dims; ++d) {
    t.dims.push_back(t.table.AddDimensionColumn("d" + std::to_string(d)));
    t.cardinality.push_back(static_cast<int32_t>(rng->UniformInt(1, 5)));
  }
  t.measure = t.table.AddMeasureColumn("m");
  const int64_t rows = rng->UniformInt(0, 60);
  for (int64_t r = 0; r < rows; ++r) {
    for (int d = 0; d < num_dims; ++d) {
      t.table.SetDim(t.dims[static_cast<size_t>(d)],
                     "v" + std::to_string(rng->UniformInt(0, t.cardinality[static_cast<size_t>(d)] - 1)));
    }
    t.table.SetMeasure(t.measure, rng->Uniform() < 0.3 ? 1.5 : rng->Normal(10.0, 4.0));
    t.table.CommitRow();
  }
  return t;
}

// 0-4 distinct dimension columns in random order.
std::vector<int> RandomKeys(const RandomTable& t, Rng* rng) {
  std::vector<int> pool = t.dims;
  const size_t width = static_cast<size_t>(
      rng->UniformInt(0, std::min<int64_t>(4, static_cast<int64_t>(pool.size()))));
  std::vector<int> keys;
  for (size_t k = 0; k < width; ++k) {
    const size_t pick = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    keys.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return keys;
}

// A code of `column` drawn from its dictionary, or one past it (a code no
// row has) one time in five.
int32_t RandomCode(const RandomTable& t, int column, Rng* rng) {
  const int32_t size = t.table.dict(column).size();
  if (size == 0 || rng->Uniform() < 0.2) return size;
  return static_cast<int32_t>(rng->UniformInt(0, size - 1));
}

// The filter shapes sibling selection must handle, over the key columns:
// none; one column; two columns; one column twice with equal codes; one
// column twice with different codes; a code no row has.
RowFilter KeyFilter(const RandomTable& t, const std::vector<int>& keys, int shape, Rng* rng) {
  RowFilter filter;
  if (keys.empty() || shape == 0) return filter;
  auto pick = [&] {
    return keys[static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
  };
  const int a = pick();
  const int32_t code = RandomCode(t, a, rng);
  switch (shape) {
    case 1:
      filter.Add(a, code);
      break;
    case 2: {
      filter.Add(a, code);
      const int b = pick();
      filter.Add(b, RandomCode(t, b, rng));
      break;
    }
    case 3:
      filter.Add(a, code);
      filter.Add(a, code);
      break;
    case 4:
      filter.Add(a, code);
      filter.Add(a, code + 1);
      break;
    default:
      filter.Add(a, t.table.dict(a).size());
      break;
  }
  return filter;
}

// Any filter: 0-2 equalities on any dimension column.
RowFilter AnyFilter(const RandomTable& t, Rng* rng) {
  RowFilter filter;
  const int64_t n = rng->UniformInt(0, 2);
  for (int64_t i = 0; i < n; ++i) {
    const int column = t.dims[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(t.dims.size()) - 1))];
    filter.Add(column, RandomCode(t, column, rng));
  }
  return filter;
}

// Same groups, same order, same keys, bit-equal Moments, and the
// reference's Find agrees with the flat one on every group and on random
// tuples (most of them absent).
void ExpectSameGroups(const GroupByResult& got, const ReferenceGroupByResult& want,
                      const RandomTable& t, const std::vector<int>& keys, Rng* rng,
                      const std::string& where) {
  ASSERT_EQ(got.num_groups(), want.num_groups()) << where;
  for (size_t g = 0; g < want.num_groups(); ++g) {
    std::span<const int32_t> key = got.key_tuple(g);
    ASSERT_EQ(std::vector<int32_t>(key.begin(), key.end()), want.key_tuple(g)) << where;
    ASSERT_TRUE(SameMoments(got.stats(g), want.stats(g))) << where << " group " << g;
    ASSERT_EQ(got.Find(key), std::optional<size_t>(g)) << where;
  }
  for (int probe = 0; probe < 8; ++probe) {
    std::vector<int32_t> tuple;
    for (int column : keys) tuple.push_back(RandomCode(t, column, rng));
    ASSERT_EQ(got.Find(tuple), want.Find(tuple)) << where;
  }
}

TEST(GroupByDifferential, FlatGroupByMatchesTheReference) {
  constexpr uint64_t kSeed = 2028;
  constexpr int kCases = 600;
  int widths[5] = {0, 0, 0, 0, 0};
  for (int c = 0; c < kCases; ++c) {
    // One sub-stream per case: any case replays alone from (seed, stream).
    Rng rng(kSeed, static_cast<uint64_t>(c));
    const RandomTable t = MakeTable(&rng);
    const std::vector<int> keys = RandomKeys(t, &rng);
    const RowFilter filter = AnyFilter(t, &rng);
    const int measure = rng.Uniform() < 0.2 ? -1 : t.measure;
    ++widths[keys.size()];
    const std::string where = "stream " + std::to_string(c);
    ExpectSameGroups(GroupBy(t.table, keys, measure, filter),
                     ReferenceGroupBy(t.table, keys, measure, filter), t, keys, &rng, where);
    ExpectSameGroups(GroupBy(t.table, keys, measure), ReferenceGroupBy(t.table, keys, measure, {}),
                     t, keys, &rng, where + " unfiltered");
  }
  for (int w = 0; w <= 4; ++w) EXPECT_GT(widths[w], 0) << "no case of key width " << w;
}

TEST(GroupByDifferential, SelectionFromTheUnfilteredGroupsMatchesTheFilteredGroupBy) {
  constexpr uint64_t kSeed = 2029;
  constexpr int kCases = 600;
  int nonempty = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(kSeed, static_cast<uint64_t>(c));
    const RandomTable t = MakeTable(&rng);
    const std::vector<int> keys = RandomKeys(t, &rng);
    const RowFilter filter = KeyFilter(t, keys, c % 6, &rng);
    const std::string where = "stream " + std::to_string(c) + " shape " + std::to_string(c % 6);
    const GroupByResult all = GroupBy(t.table, keys, t.measure);
    const std::optional<std::vector<size_t>> selected = SelectGroups(all, keys, filter);
    ASSERT_TRUE(selected.has_value()) << where;
    const ReferenceGroupByResult want = ReferenceGroupBy(t.table, keys, t.measure, filter);
    ASSERT_EQ(selected->size(), want.num_groups()) << where;
    for (size_t i = 0; i < selected->size(); ++i) {
      std::span<const int32_t> key = all.key_tuple((*selected)[i]);
      ASSERT_EQ(std::vector<int32_t>(key.begin(), key.end()), want.key_tuple(i)) << where;
      ASSERT_TRUE(SameMoments(all.stats((*selected)[i]), want.stats(i))) << where;
    }
    if (!selected->empty() && !filter.empty()) ++nonempty;

    // A filter column outside the key is not selectable.
    for (int column : t.dims) {
      if (std::find(keys.begin(), keys.end(), column) != keys.end()) continue;
      RowFilter outside = filter;
      outside.Add(column, 0);
      EXPECT_FALSE(SelectGroups(all, keys, outside).has_value()) << where;
      break;
    }
  }
  EXPECT_GT(nonempty, kCases / 10);
}

TEST(GroupByDifferential, IndexRankerMatchesTheReference) {
  constexpr uint64_t kSeed = 2030;
  constexpr int kCases = 400;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const AggFn aggs[] = {AggFn::kCount, AggFn::kSum, AggFn::kMean, AggFn::kStd, AggFn::kVar};
  const ComplaintDirection directions[] = {ComplaintDirection::kTooHigh,
                                           ComplaintDirection::kTooLow,
                                           ComplaintDirection::kEquals};
  for (int c = 0; c < kCases; ++c) {
    Rng rng(kSeed, static_cast<uint64_t>(c));
    const RandomTable t = MakeTable(&rng);
    const std::vector<int> keys = RandomKeys(t, &rng);
    const std::string where = "stream " + std::to_string(c);
    Complaint complaint;
    complaint.agg = aggs[rng.UniformInt(0, 4)];
    complaint.direction = directions[rng.UniformInt(0, 2)];
    complaint.target = rng.Normal(10.0, 4.0);
    complaint.measure_column = t.measure;

    // Siblings as the engine holds them: every group of the unfiltered
    // GroupBy at a shuffled matrix row, a random key filter selecting some.
    const GroupByResult all = GroupBy(t.table, keys, t.measure);
    const RowFilter filter = KeyFilter(t, keys, static_cast<int>(rng.UniformInt(0, 5)), &rng);
    const std::vector<size_t> siblings = *SelectGroups(all, keys, filter);
    std::vector<int64_t> rows(all.num_groups());
    std::iota(rows.begin(), rows.end(), int64_t{0});
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    // Predictions from a few values, so scores tie, with the odd NaN.
    const std::vector<AggFn> primitives = RequiredPrimitives(complaint.agg);
    std::map<AggFn, std::vector<double>> fitted;
    for (AggFn primitive : primitives) {
      std::vector<double>& values = fitted[primitive];
      for (size_t r = 0; r < rows.size(); ++r) {
        values.push_back(rng.Uniform() < 0.05 ? nan
                                              : static_cast<double>(rng.UniformInt(0, 4)) * 1.5);
      }
    }
    std::vector<PrimitiveFit> fits;
    for (auto it = primitives.rbegin(); it != primitives.rend(); ++it) {
      fits.push_back(PrimitiveFit{*it, &fitted[*it]});  // any order: the ranker sorts them
    }
    const int top_k = static_cast<int>(rng.UniformInt(0, 6));
    const RankedGroups got =
        RankGroups(all, rows, siblings, fits, complaint, top_k, t.table, keys);

    const ReferenceGroupByResult reference_siblings =
        ReferenceGroupBy(t.table, keys, t.measure, filter);
    GroupPredictions predictions(reference_siblings.num_groups());
    for (size_t i = 0; i < siblings.size(); ++i) {
      for (AggFn primitive : primitives) {
        predictions[i][primitive] = fitted[primitive][static_cast<size_t>(rows[siblings[i]])];
      }
    }
    const std::vector<ScoredGroup> want =
        ReferenceRankGroups(reference_siblings, predictions, complaint);

    ASSERT_EQ(got.top.size(), std::min<size_t>(static_cast<size_t>(top_k), want.size()))
        << where;
    EXPECT_EQ(Bits(got.best_score),
              Bits(want.empty() ? std::numeric_limits<double>::infinity() : want.front().score))
        << where;
    for (size_t j = 0; j < got.top.size(); ++j) {
      const GroupRecommendation& g = got.top[j];
      const ScoredGroup& w = want[j];
      ASSERT_EQ(g.key, w.key) << where << " rank " << j;
      EXPECT_TRUE(SameMoments(g.observed, w.observed)) << where;
      EXPECT_TRUE(SameMoments(g.repaired, w.repaired)) << where;
      EXPECT_EQ(Bits(g.repaired_complaint_value), Bits(w.repaired_complaint_value)) << where;
      EXPECT_EQ(Bits(g.score), Bits(w.score)) << where;
      const size_t i = *reference_siblings.Find(w.key);
      ASSERT_EQ(g.predicted.size(), predictions[i].size()) << where;
      for (const auto& [primitive, value] : predictions[i]) {
        EXPECT_EQ(Bits(g.predicted.at(primitive)), Bits(value)) << where;
      }
    }
  }
}

}  // namespace
}  // namespace reptile
