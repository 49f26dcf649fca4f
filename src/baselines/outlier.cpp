#include "baselines/outlier.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/repair.h"

namespace reptile {

std::vector<ScoredGroup> OutlierRank(const GroupByResult& siblings,
                                     const GroupPredictions& predictions, AggFn agg) {
  REPTILE_CHECK_EQ(siblings.num_groups(), predictions.size());
  std::vector<ScoredGroup> scored;
  scored.reserve(siblings.num_groups());
  for (size_t g = 0; g < siblings.num_groups(); ++g) {
    ScoredGroup sg;
    std::span<const int32_t> key = siblings.key_tuple(g);
    sg.key.assign(key.begin(), key.end());
    sg.observed = siblings.stats(g);
    sg.repaired = ApplyRepair(sg.observed, predictions[g]);
    double deviation = std::fabs(sg.observed.Value(agg) - sg.repaired.Value(agg));
    sg.repaired_complaint_value = sg.repaired.Value(agg);
    sg.score = -deviation;  // largest deviation first
    scored.push_back(std::move(sg));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) { return a.score < b.score; });
  return scored;
}

}  // namespace reptile
