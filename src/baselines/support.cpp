#include "baselines/support.h"

#include <algorithm>

namespace reptile {

std::vector<ScoredGroup> SupportRank(const GroupByResult& siblings) {
  std::vector<ScoredGroup> scored;
  scored.reserve(siblings.num_groups());
  for (size_t g = 0; g < siblings.num_groups(); ++g) {
    ScoredGroup sg;
    std::span<const int32_t> key = siblings.key_tuple(g);
    sg.key.assign(key.begin(), key.end());
    sg.observed = siblings.stats(g);
    sg.repaired = sg.observed;
    sg.repaired_complaint_value = sg.observed.count;
    sg.score = -sg.observed.count;
    scored.push_back(std::move(sg));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) { return a.score < b.score; });
  return scored;
}

}  // namespace reptile
