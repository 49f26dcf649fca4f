#include "model/features.h"

#include <cmath>

#include "common/check.h"
#include "common/stats.h"

namespace reptile {

AttrValueStats CollectAttrValueStats(const GroupByResult& groups, size_t key_pos, AggFn fn,
                                     int32_t cardinality) {
  AttrValueStats stats;
  stats.y_per_code.assign(static_cast<size_t>(cardinality), {});
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    int32_t code = groups.key(g, key_pos);
    REPTILE_CHECK(code >= 0 && code < cardinality);
    stats.y_per_code[static_cast<size_t>(code)].push_back(groups.stats(g).Value(fn));
  }
  return stats;
}

std::vector<double> MainEffectMap(const GroupByResult& groups, size_t key_pos, AggFn fn,
                                  int32_t cardinality) {
  AttrValueStats stats = CollectAttrValueStats(groups, key_pos, fn, cardinality);
  std::vector<double> all;
  for (const auto& ys : stats.y_per_code) all.insert(all.end(), ys.begin(), ys.end());
  double global_median = Median(std::move(all));
  std::vector<double> map(static_cast<size_t>(cardinality), global_median);
  for (int32_t code = 0; code < cardinality; ++code) {
    const auto& ys = stats.y_per_code[static_cast<size_t>(code)];
    if (!ys.empty()) map[static_cast<size_t>(code)] = Median(ys);
  }
  return map;
}

std::vector<double> AuxiliaryMapFromCodes(const std::vector<int32_t>& join_codes,
                                          const std::vector<double>& values,
                                          int32_t cardinality, bool normalize) {
  REPTILE_CHECK_EQ(join_codes.size(), values.size());
  std::vector<double> sum(static_cast<size_t>(cardinality), 0.0);
  std::vector<int64_t> count(static_cast<size_t>(cardinality), 0);
  for (size_t row = 0; row < join_codes.size(); ++row) {
    int32_t code = join_codes[row];
    if (code < 0 || code >= cardinality) continue;  // value unseen in the base data
    sum[static_cast<size_t>(code)] += values[row];
    ++count[static_cast<size_t>(code)];
  }
  std::vector<double> map(static_cast<size_t>(cardinality), 0.0);
  std::vector<double> present;
  for (int32_t code = 0; code < cardinality; ++code) {
    if (count[static_cast<size_t>(code)] > 0) {
      map[static_cast<size_t>(code)] =
          sum[static_cast<size_t>(code)] / static_cast<double>(count[static_cast<size_t>(code)]);
      present.push_back(map[static_cast<size_t>(code)]);
    }
  }
  if (normalize && present.size() >= 2) {
    double mean = Mean(present);
    double std = SampleStd(present);
    if (std <= 0.0) std = 1.0;
    for (int32_t code = 0; code < cardinality; ++code) {
      if (count[static_cast<size_t>(code)] > 0) {
        map[static_cast<size_t>(code)] = (map[static_cast<size_t>(code)] - mean) / std;
      }
      // absent codes stay at 0, the normalised mean.
    }
  }
  return map;
}

std::unordered_map<std::vector<int32_t>, double, CodeTupleHash> MultiAuxiliaryMapFromCodes(
    const std::vector<const std::vector<int32_t>*>& join_codes,
    const std::vector<double>& values, bool normalize) {
  std::unordered_map<std::vector<int32_t>, double, CodeTupleHash> sums;
  std::unordered_map<std::vector<int32_t>, int64_t, CodeTupleHash> counts;
  std::vector<int32_t> key(join_codes.size());
  for (size_t row = 0; row < values.size(); ++row) {
    bool valid = true;
    for (size_t k = 0; k < join_codes.size(); ++k) {
      key[k] = (*join_codes[k])[row];
      if (key[k] < 0) valid = false;
    }
    if (!valid) continue;
    sums[key] += values[row];
    counts[key] += 1;
  }
  std::unordered_map<std::vector<int32_t>, double, CodeTupleHash> map;
  std::vector<double> present;
  for (auto& [tuple, sum] : sums) {
    double mean = sum / static_cast<double>(counts[tuple]);
    map[tuple] = mean;
    present.push_back(mean);
  }
  if (normalize && present.size() >= 2) {
    double mean = Mean(present);
    double std = SampleStd(present);
    if (std <= 0.0) std = 1.0;
    for (auto& [tuple, value] : map) value = (value - mean) / std;
  }
  return map;
}

std::vector<int32_t> TranslateCodes(const ValueDict& from, const ValueDict& to,
                                    const std::vector<int32_t>& codes) {
  // Per-distinct-value translation table, then a vectorised remap.
  std::vector<int32_t> table(static_cast<size_t>(from.size()), -1);
  for (int32_t code = 0; code < from.size(); ++code) {
    table[static_cast<size_t>(code)] = to.Find(from.name(code)).value_or(-1);
  }
  std::vector<int32_t> out(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) out[i] = table[static_cast<size_t>(codes[i])];
  return out;
}

}  // namespace reptile
