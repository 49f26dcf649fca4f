#include "core/repair.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"

namespace reptile {

std::vector<AggFn> RequiredPrimitives(AggFn agg) {
  switch (agg) {
    case AggFn::kCount:
      return {AggFn::kCount};
    case AggFn::kMean:
      return {AggFn::kMean};
    case AggFn::kSum:
      return {AggFn::kCount, AggFn::kMean};
    case AggFn::kStd:
    case AggFn::kVar:
      // A parent's STD recombines from every child's (count, mean, std)
      // triple, and anomalous STDs are usually driven by a group's mean
      // diverging from its siblings (Figure 1: repairing Zata's mean is
      // what resolves Ofla's STD complaint). frepair therefore restores the
      // full expected tuple.
      return {AggFn::kCount, AggFn::kMean, AggFn::kStd};
  }
  return {};
}

Moments ApplyRepair(const Moments& observed, const std::map<AggFn, double>& predicted) {
  std::array<AggFn, 5> primitives{};  // one slot per AggFn value
  std::array<double, 5> values{};
  REPTILE_CHECK_LE(predicted.size(), primitives.size());
  size_t n = 0;
  for (const auto& [fn, value] : predicted) {
    primitives[n] = fn;
    values[n] = value;
    ++n;
  }
  return ApplyRepair(observed, std::span<const AggFn>(primitives.data(), n),
                     std::span<const double>(values.data(), n));
}

Moments ApplyRepair(const Moments& observed, std::span<const AggFn> primitives,
                    std::span<const double> predicted) {
  REPTILE_CHECK_EQ(primitives.size(), predicted.size());
  double count = observed.count;
  double mean = observed.Mean();
  double std = observed.SampleStd();
  for (size_t i = 0; i < primitives.size(); ++i) {
    const double value = predicted[i];
    switch (primitives[i]) {
      case AggFn::kCount:
        count = std::max(0.0, value);
        break;
      case AggFn::kMean:
        mean = value;
        break;
      case AggFn::kStd:
        std = std::max(0.0, value);
        break;
      case AggFn::kVar:
        std = std::sqrt(std::max(0.0, value));
        break;
      case AggFn::kSum:
        // SUM is never predicted directly; it decomposes into COUNT and MEAN.
        REPTILE_CHECK(false) << "SUM must be repaired via COUNT and MEAN";
        break;
    }
  }
  return Moments::FromStats(count, mean, std);
}

}  // namespace reptile
