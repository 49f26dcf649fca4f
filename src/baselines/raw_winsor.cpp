#include "baselines/raw_winsor.h"

#include <algorithm>

#include "common/check.h"

namespace reptile {

std::vector<ScoredGroup> RawWinsorRank(const Table& table, const std::vector<int>& key_columns,
                                       const Complaint& complaint) {
  REPTILE_CHECK_GE(complaint.measure_column, 0) << "Raw needs a measure column";
  GroupByResult siblings =
      GroupBy(table, key_columns, complaint.measure_column, complaint.filter);

  // Collect each group's raw measure values in one pass.
  std::vector<std::vector<double>> raw_values(siblings.num_groups());
  const std::vector<double>& measures = table.measure(complaint.measure_column);
  std::vector<int32_t> key(key_columns.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!complaint.filter.empty() && !table.Matches(complaint.filter, row)) continue;
    for (size_t k = 0; k < key_columns.size(); ++k) {
      key[k] = table.dim_codes(key_columns[k])[row];
    }
    std::optional<size_t> g = siblings.Find(key);
    REPTILE_CHECK(g.has_value());
    raw_values[*g].push_back(measures[row]);
  }

  Moments total;
  for (size_t g = 0; g < siblings.num_groups(); ++g) total.Add(siblings.stats(g));

  // Cross-group plausibility band: mean +- std of the drill-down groups'
  // means. Clipping into this band is the "drift the values back" repair.
  std::vector<double> group_means;
  group_means.reserve(siblings.num_groups());
  for (size_t g = 0; g < siblings.num_groups(); ++g) {
    group_means.push_back(siblings.stats(g).Mean());
  }
  Moments band;
  for (double m : group_means) band.Observe(m);
  double lo = band.Mean() - band.SampleStd();
  double hi = band.Mean() + band.SampleStd();

  std::vector<ScoredGroup> scored;
  scored.reserve(siblings.num_groups());
  for (size_t g = 0; g < siblings.num_groups(); ++g) {
    ScoredGroup sg;
    std::span<const int32_t> group_key = siblings.key_tuple(g);
    sg.key.assign(group_key.begin(), group_key.end());
    sg.observed = siblings.stats(g);
    Moments repaired;
    for (double v : raw_values[g]) {
      repaired.Observe(std::clamp(v, lo, hi));
    }
    sg.repaired = repaired;
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

}  // namespace reptile
