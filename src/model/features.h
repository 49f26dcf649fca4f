// Featurization (paper Section 3.3, Appendices B and H).
//
// Every feature is a map from attribute value codes (or code tuples) to a
// double, which keeps the feature matrix factorised:
//
//  * Default (main-effect) features — each categorical value is replaced by
//    the median of the group statistic Y over the non-empty groups carrying
//    that value, following OLAP-cube anomaly detection practice (§3.3.1).
//  * Auxiliary features — measures of a joined auxiliary dataset, centered
//    and normalised over the distinct join values (§3.3.2); multi-attribute
//    joins produce tuple-keyed maps (Appendix H).
//  * Custom features — user functions from per-value group statistics to
//    feature values (§3.3.3), e.g., lags or spatial neighbourhoods.

#ifndef REPTILE_MODEL_FEATURES_H_
#define REPTILE_MODEL_FEATURES_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/aggregates.h"
#include "common/hashing.h"
#include "data/group_by.h"
#include "data/table.h"

namespace reptile {

/// Per-value group statistics handed to custom featurizers: y_per_code[code]
/// lists the group statistic of every non-empty group carrying that value.
struct AttrValueStats {
  std::vector<std::vector<double>> y_per_code;
};

/// Custom featurizer q(A, Y): receives the per-value statistics and returns
/// one feature value per code (vector indexed by code).
using CustomFeatureFn = std::function<std::vector<double>(const AttrValueStats&)>;

/// Collects the y statistic of every non-empty group by the value of the
/// key at `key_pos`, for codes in [0, cardinality).
AttrValueStats CollectAttrValueStats(const GroupByResult& groups, size_t key_pos, AggFn fn,
                                     int32_t cardinality);

/// Main-effect map: median of the group statistic per value code; codes with
/// no groups get the global median (a neutral estimate).
std::vector<double> MainEffectMap(const GroupByResult& groups, size_t key_pos, AggFn fn,
                                  int32_t cardinality);

/// Auxiliary single-attribute map over an auxiliary table's pre-extracted
/// (and possibly dictionary-translated) join codes and measure values: the
/// values averaged per join code and optionally z-normalised across the
/// distinct codes. Codes < 0 or >= `cardinality` are skipped; codes absent
/// from the auxiliary data get 0 (the post-normalisation mean).
std::vector<double> AuxiliaryMapFromCodes(const std::vector<int32_t>& join_codes,
                                          const std::vector<double>& values,
                                          int32_t cardinality, bool normalize = true);

/// Auxiliary multi-attribute map (Appendix H) over pre-extracted
/// per-attribute code arrays: tuple of join codes -> averaged, optionally
/// z-normalised value. Tuples containing a negative code are skipped.
std::unordered_map<std::vector<int32_t>, double, CodeTupleHash> MultiAuxiliaryMapFromCodes(
    const std::vector<const std::vector<int32_t>*>& join_codes,
    const std::vector<double>& values, bool normalize = true);

/// Translates codes from one dictionary to another by value name; values
/// absent from `to` become -1. Used to align auxiliary tables with the base
/// table's dictionaries before building feature maps.
std::vector<int32_t> TranslateCodes(const ValueDict& from, const ValueDict& to,
                                    const std::vector<int32_t>& codes);

}  // namespace reptile

#endif  // REPTILE_MODEL_FEATURES_H_
