// Model-based repair (paper Sections 3.1-3.2).
//
// frepair replaces a drill-down group's statistics with their expected
// values. Complaint aggregates decompose into primitive distributive
// statistics (SUM = MEAN x COUNT, footnote 3/4 of the paper), one model is
// fit per primitive, and the repaired group is re-assembled as a moment
// sketch so it recombines with its siblings through the distributive merge.

#ifndef REPTILE_CORE_REPAIR_H_
#define REPTILE_CORE_REPAIR_H_

#include <map>
#include <span>
#include <vector>

#include "agg/aggregates.h"

namespace reptile {

/// Primitive statistics whose models are needed to repair `agg`:
/// COUNT -> {COUNT}; MEAN -> {MEAN}; SUM -> {COUNT, MEAN};
/// STD/VAR -> {COUNT, MEAN, STD} (the full expected tuple: parent STDs
/// recombine from every child triple, and STD anomalies are usually driven
/// by a diverging child mean).
std::vector<AggFn> RequiredPrimitives(AggFn agg);

/// Builds the repaired moment sketch of a group: starts from the observed
/// sketch and substitutes each predicted primitive (predictions are clamped
/// to their domains: COUNT >= 0, STD >= 0).
Moments ApplyRepair(const Moments& observed, const std::map<AggFn, double>& predicted);

/// The same repair over parallel arrays: `predicted[i]` is the prediction
/// of `primitives[i]`, substituted in the order given (the map overload
/// applies its entries in AggFn order through this one).
Moments ApplyRepair(const Moments& observed, std::span<const AggFn> primitives,
                    std::span<const double> predicted);

}  // namespace reptile

#endif  // REPTILE_CORE_REPAIR_H_
