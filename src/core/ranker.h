// Group ranking (paper Sections 2.1 and 3.1, Problem 1).
//
// Given the sibling groups of a candidate drill-down (the provenance of the
// complaint tuple grouped one level deeper), each group is scored by the
// extent that repairing its statistics to their expected values resolves the
// complaint: score = fcomp( G( V' \ {t} u {frepair(t)} ) ), computed in O(1)
// per group through the distributive moment algebra.

#ifndef REPTILE_CORE_RANKER_H_
#define REPTILE_CORE_RANKER_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "agg/aggregates.h"
#include "core/complaint.h"
#include "data/group_by.h"

namespace reptile {

/// One scored drill-down group, as the baselines (src/baselines/) rank them.
struct ScoredGroup {
  std::vector<int32_t> key;  // group-by key codes
  Moments observed;
  Moments repaired;
  double repaired_complaint_value = 0.0;  // t'_c's aggregate after the repair
  double score = 0.0;                     // fcomp(t'_c); lower is better
};

/// Per-group predicted primitive statistics, aligned with the groups of a
/// GroupByResult — the baselines' input form.
using GroupPredictions = std::vector<std::map<AggFn, double>>;

/// One recommended drill-down group.
struct GroupRecommendation {
  std::string description;          // "year=1986, village=Zata"
  std::vector<int32_t> key;         // codes over the drill key columns
  Moments observed;
  Moments repaired;
  std::map<AggFn, double> predicted;  // per primitive statistic
  double repaired_complaint_value = 0.0;
  double score = 0.0;
};

/// One primitive statistic's repair model: its fitted value per matrix row.
struct PrimitiveFit {
  AggFn primitive;
  const std::vector<double>* fitted;  // borrowed
};

/// RankGroups' answer: the best `top_k` siblings, best first, and the best
/// score over every sibling (+infinity when there is none).
struct RankedGroups {
  std::vector<GroupRecommendation> top;
  double best_score = 0.0;
};

/// Scores the siblings — `siblings` lists their indices into `groups`, in
/// sibling order — and returns the `top_k` with the lowest scores. Group g
/// sits at matrix row `rows[g]`, where each primitive's prediction is
/// `fits[p].fitted[rows[g]]`. Siblings are ordered by a stable sort on
/// score, so ties (and NaN scores) keep sibling order as std::stable_sort
/// leaves them. Descriptions name `key_columns` through `table`'s
/// dictionaries. Nothing is allocated per sibling beyond its score and
/// position; only the `top_k` are formatted.
RankedGroups RankGroups(const GroupByResult& groups, std::span<const int64_t> rows,
                        std::span<const size_t> siblings, std::span<const PrimitiveFit> fits,
                        const Complaint& complaint, int top_k, const Table& table,
                        const std::vector<int>& key_columns);

}  // namespace reptile

#endif  // REPTILE_CORE_RANKER_H_
