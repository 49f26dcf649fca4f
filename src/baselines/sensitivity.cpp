#include "baselines/sensitivity.h"

#include <algorithm>

namespace reptile {

std::vector<ScoredGroup> SensitivityRank(const GroupByResult& siblings,
                                         const Complaint& complaint) {
  Moments total;
  for (size_t g = 0; g < siblings.num_groups(); ++g) total.Add(siblings.stats(g));
  std::vector<ScoredGroup> scored;
  scored.reserve(siblings.num_groups());
  for (size_t g = 0; g < siblings.num_groups(); ++g) {
    ScoredGroup sg;
    std::span<const int32_t> key = siblings.key_tuple(g);
    sg.key.assign(key.begin(), key.end());
    sg.observed = siblings.stats(g);
    // Deletion intervention: the repaired sketch is empty.
    sg.repaired = Moments();
    Moments remaining = total;
    remaining.Subtract(sg.observed);
    sg.repaired_complaint_value = remaining.Value(complaint.agg);
    sg.score = complaint.Score(sg.repaired_complaint_value);
    scored.push_back(std::move(sg));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) { return a.score < b.score; });
  return scored;
}

}  // namespace reptile
