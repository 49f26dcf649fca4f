#include "core/ranker.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "core/repair.h"
#include "core/view.h"

namespace reptile {

RankedGroups RankGroups(const GroupByResult& groups, std::span<const int64_t> rows,
                        std::span<const size_t> siblings, std::span<const PrimitiveFit> fits,
                        const Complaint& complaint, int top_k, const Table& table,
                        const std::vector<int>& key_columns) {
  REPTILE_CHECK_EQ(rows.size(), groups.num_groups());
  // The repair substitutes the primitives in AggFn order, as ApplyRepair's
  // map form does.
  std::array<PrimitiveFit, 5> ordered{};  // one slot per AggFn value
  REPTILE_CHECK_LE(fits.size(), ordered.size());
  std::copy(fits.begin(), fits.end(), ordered.begin());
  const size_t num_fits = fits.size();
  std::sort(ordered.begin(), ordered.begin() + static_cast<std::ptrdiff_t>(num_fits),
            [](const PrimitiveFit& a, const PrimitiveFit& b) { return a.primitive < b.primitive; });
  std::array<AggFn, 5> primitives{};
  for (size_t p = 0; p < num_fits; ++p) primitives[p] = ordered[p].primitive;
  std::array<double, 5> predicted{};
  // Loads group g's predictions into `predicted`.
  auto predict = [&](size_t g) {
    const size_t row = static_cast<size_t>(rows[g]);
    for (size_t p = 0; p < num_fits; ++p) predicted[p] = (*ordered[p].fitted)[row];
  };

  Moments total;
  for (size_t g : siblings) total.Add(groups.stats(g));
  // t'_c = G(V' \ {t} u {frepair(t)}): subtract the observed sketch, add the
  // repaired one. Returns t'_c's aggregate; `predicted` holds g's values.
  auto repaired_value = [&](size_t g, Moments* repaired) {
    *repaired = ApplyRepair(groups.stats(g), std::span<const AggFn>(primitives.data(), num_fits),
                            std::span<const double>(predicted.data(), num_fits));
    Moments repaired_total = total;
    repaired_total.Subtract(groups.stats(g));
    repaired_total.Add(*repaired);
    return repaired_total.Value(complaint.agg);
  };

  std::vector<double> scores(siblings.size());
  for (size_t i = 0; i < siblings.size(); ++i) {
    Moments repaired;
    predict(siblings[i]);
    scores[i] = complaint.Score(repaired_value(siblings[i], &repaired));
  }
  std::vector<size_t> order(siblings.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&scores](size_t a, size_t b) { return scores[a] < scores[b]; });

  RankedGroups ranked;
  ranked.best_score =
      order.empty() ? std::numeric_limits<double>::infinity() : scores[order.front()];
  const size_t keep = std::min(static_cast<size_t>(std::max(top_k, 0)), order.size());
  ranked.top.reserve(keep);
  for (size_t j = 0; j < keep; ++j) {
    const size_t g = siblings[order[j]];
    GroupRecommendation gr;
    std::span<const int32_t> key = groups.key_tuple(g);
    gr.key.assign(key.begin(), key.end());
    gr.description = FormatGroupKey(table, key_columns, gr.key);
    gr.observed = groups.stats(g);
    predict(g);
    gr.repaired_complaint_value = repaired_value(g, &gr.repaired);
    gr.score = scores[order[j]];
    for (size_t p = 0; p < num_fits; ++p) gr.predicted[primitives[p]] = predicted[p];
    ranked.top.push_back(std::move(gr));
  }
  return ranked;
}

}  // namespace reptile
