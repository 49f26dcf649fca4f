// Factorised feature matrix (paper Section 3.4).
//
// The (virtual) feature matrix X has one row per combination of leaf paths
// across the hierarchy f-trees — the cross product that materialised
// approaches pay for explicitly — and one column per registered feature.
// Columns are per-attribute value maps (code -> double), so X is fully
// described by the trees plus O(#values) state; the intercept is a column
// over the singleton tree. Multi-attribute features (Appendix H) are
// supported through tuple maps; the factorised operators (fmatrix/) take
// single-attribute matrices only, so a matrix with such a column is
// materialised (MaterializeMatrix) and fitted by the dense backend.
//
// The attribute order is: trees in hierarchy order (the drill-down hierarchy
// last, per Section 3.4), levels least-to-most specific within each tree.
// Clusters of the multi-level model are combinations of every attribute but
// the last (the drilled attribute), which makes them contiguous row ranges.

#ifndef REPTILE_FACTOR_FREP_H_
#define REPTILE_FACTOR_FREP_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/aggregates.h"
#include "common/hashing.h"
#include "data/group_by.h"
#include "data/hierarchy.h"
#include "data/table.h"
#include "factor/ftree.h"

namespace reptile {

/// One column of the factorised feature matrix.
struct FeatureColumn {
  std::string name;

  // Single-attribute column: value of the column at a row is
  // value_map[code of `attr` at that row]. Codes outside the map read 0.
  AttrId attr;
  std::vector<double> value_map;

  // Multi-attribute column (Appendix H): keyed by the tuple of codes of
  // `attrs` (in attribute order); missing tuples read `missing_value`.
  bool is_multi = false;
  std::vector<AttrId> attrs;
  std::unordered_map<std::vector<int32_t>, double, CodeTupleHash> multi_map;
  double missing_value = 0.0;

  double ValueForCode(int32_t code) const {
    size_t idx = static_cast<size_t>(code);
    return idx < value_map.size() ? value_map[idx] : 0.0;
  }

  double ValueForTuple(const std::vector<int32_t>& codes) const {
    auto it = multi_map.find(codes);
    return it == multi_map.end() ? missing_value : it->second;
  }
};

/// The factorised matrix: borrowed trees (owned by the engine's caches or the
/// caller) plus feature columns.
class FactorizedMatrix {
 public:
  /// Appends a tree; trees must be added in attribute order (drilled last).
  void AddTree(const FTree* tree);

  /// Appends a column; returns its index. Single-attribute columns must
  /// reference an existing (tree, level).
  int AddColumn(FeatureColumn column);

  int num_trees() const { return static_cast<int>(trees_.size()); }
  const FTree& tree(int k) const { return *trees_[k]; }

  int num_cols() const { return static_cast<int>(columns_.size()); }
  const FeatureColumn& column(int c) const { return columns_[c]; }

  /// Rows of the virtual matrix = product of per-tree leaf counts.
  int64_t num_rows() const { return num_rows_; }

  /// Product of leaf counts of trees before / after tree k.
  int64_t PrefixLeaves(int k) const { return prefix_leaves_[k]; }
  int64_t SuffixLeaves(int k) const { return suffix_leaves_[k]; }

  /// True when every column is single-attribute: the precondition of every
  /// factorised operator in fmatrix/. A matrix with a multi-attribute column
  /// is materialised instead.
  bool AllSingleAttribute() const;

  /// Total number of attributes across trees and the flattened index of an
  /// attribute. Flattened order == attribute order.
  int num_attrs() const { return static_cast<int>(attr_of_flat_.size()); }
  int FlatAttrIndex(AttrId attr) const;
  AttrId FlatAttr(int flat) const { return attr_of_flat_[flat]; }

  /// Indices of single-attribute columns on the given attribute.
  const std::vector<int>& ColumnsOnAttr(AttrId attr) const;
  /// Indices of multi-attribute columns.
  const std::vector<int>& MultiColumns() const { return multi_columns_; }

  // ---- Cluster structure (multi-level model) ----

  /// The intra-cluster attribute = deepest level of the last tree.
  AttrId IntraAttr() const;

  /// Number of clusters = combinations of all attributes but the intra one.
  int64_t num_clusters() const;

  /// Cluster of a row; clusters are contiguous and numbered in row order.
  int64_t ClusterOfRow(int64_t row) const;

  // ---- Row decoding ----

  /// Per-tree leaf indices of a row.
  void DecodeRowToLeaves(int64_t row, std::vector<int64_t>* leaves) const;

  /// Row index of a per-tree leaf tuple.
  int64_t RowOfLeaves(const std::vector<int64_t>& leaves) const;

  /// Value codes of every attribute (flattened order) at a row.
  void DecodeRowToCodes(int64_t row, std::vector<int32_t>* codes) const;

  /// Value of column `c` given the flattened code vector of a row.
  double ColumnValue(int c, const std::vector<int32_t>& codes) const;

  /// Materialises one row of features (length num_cols()).
  void FeatureRow(int64_t row, std::vector<double>* out) const;

 private:
  std::vector<const FTree*> trees_;
  std::vector<FeatureColumn> columns_;
  std::vector<AttrId> attr_of_flat_;
  std::vector<int> attr_offset_;  // per tree: flat index of its level 0
  std::vector<int64_t> prefix_leaves_;
  std::vector<int64_t> suffix_leaves_;
  std::vector<std::vector<int>> columns_on_attr_;  // by flat attr index
  std::vector<int> multi_columns_;
  int64_t num_rows_ = 1;

  void RecomputeLayout();
};

/// Matrix row in `fm` of each group of `groups`, whose key tuples hold the
/// codes of `tree_columns`' columns in tree order. `tree_columns[k]` lists
/// the table columns backing tree k's levels (empty for the intercept tree,
/// which contributes no codes). A group whose path some tree lacks maps to
/// -1 (possible only when the trees were built from different data).
std::vector<int64_t> GroupMatrixRows(const FactorizedMatrix& fm, const GroupByResult& groups,
                                     const std::vector<std::vector<int>>& tree_columns);

/// Aggregates `measure_column` of the rows of `table` matching `filter` into
/// one Moments sketch per matrix row (the y vector over all parallel groups;
/// empty groups keep zero moments, the paper's worst case): one GroupBy over
/// the flattened `tree_columns`, each group placed at its GroupMatrixRows
/// row, groups mapping to -1 skipped. Pass measure_column = -1 for counts.
std::vector<Moments> BuildGroupMoments(const FactorizedMatrix& fm, const Table& table,
                                       const std::vector<std::vector<int>>& tree_columns,
                                       int measure_column,
                                       const RowFilter& filter = RowFilter());

}  // namespace reptile

#endif  // REPTILE_FACTOR_FREP_H_
