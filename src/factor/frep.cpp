#include "factor/frep.h"

#include "common/check.h"

namespace reptile {

void FactorizedMatrix::AddTree(const FTree* tree) {
  REPTILE_CHECK(tree != nullptr);
  REPTILE_CHECK(columns_.empty()) << "add all trees before columns";
  trees_.push_back(tree);
  RecomputeLayout();
}

void FactorizedMatrix::RecomputeLayout() {
  attr_of_flat_.clear();
  attr_offset_.clear();
  prefix_leaves_.assign(trees_.size(), 1);
  suffix_leaves_.assign(trees_.size(), 1);
  num_rows_ = 1;
  for (size_t k = 0; k < trees_.size(); ++k) {
    attr_offset_.push_back(static_cast<int>(attr_of_flat_.size()));
    for (int l = 0; l < trees_[k]->depth(); ++l) {
      attr_of_flat_.push_back(AttrId{static_cast<int>(k), l});
    }
    num_rows_ *= trees_[k]->num_leaves();
    REPTILE_CHECK_LT(num_rows_, int64_t{1} << 62) << "matrix row count overflow";
  }
  for (size_t k = 1; k < trees_.size(); ++k) {
    prefix_leaves_[k] = prefix_leaves_[k - 1] * trees_[k - 1]->num_leaves();
  }
  for (size_t k = trees_.size(); k-- > 1;) {
    suffix_leaves_[k - 1] = suffix_leaves_[k] * trees_[k]->num_leaves();
  }
  columns_on_attr_.assign(attr_of_flat_.size(), {});
}

int FactorizedMatrix::AddColumn(FeatureColumn column) {
  int index = num_cols();
  if (column.is_multi) {
    REPTILE_CHECK(!column.attrs.empty());
    for (AttrId a : column.attrs) (void)FlatAttrIndex(a);  // validates
    multi_columns_.push_back(index);
  } else {
    columns_on_attr_[FlatAttrIndex(column.attr)].push_back(index);
  }
  columns_.push_back(std::move(column));
  return index;
}

bool FactorizedMatrix::AllSingleAttribute() const { return multi_columns_.empty(); }

int FactorizedMatrix::FlatAttrIndex(AttrId attr) const {
  REPTILE_CHECK(attr.hierarchy >= 0 && attr.hierarchy < num_trees());
  REPTILE_CHECK(attr.level >= 0 && attr.level < trees_[attr.hierarchy]->depth())
      << "bad attribute level " << attr.level;
  return attr_offset_[attr.hierarchy] + attr.level;
}

const std::vector<int>& FactorizedMatrix::ColumnsOnAttr(AttrId attr) const {
  return columns_on_attr_[FlatAttrIndex(attr)];
}

AttrId FactorizedMatrix::IntraAttr() const {
  REPTILE_CHECK(!trees_.empty());
  int last = num_trees() - 1;
  return AttrId{last, trees_[last]->depth() - 1};
}

int64_t FactorizedMatrix::num_clusters() const {
  const FTree& last = *trees_.back();
  int64_t parents = last.depth() >= 2 ? last.num_nodes(last.depth() - 2) : 1;
  return prefix_leaves_.back() * parents;
}

int64_t FactorizedMatrix::ClusterOfRow(int64_t row) const {
  const FTree& last = *trees_.back();
  int64_t last_leaf = row % last.num_leaves();
  int64_t prefix_combo = row / last.num_leaves();
  int64_t parents = last.depth() >= 2 ? last.num_nodes(last.depth() - 2) : 1;
  int64_t parent =
      last.depth() >= 2 ? last.level(last.depth() - 1).parent[last_leaf] : int64_t{0};
  return prefix_combo * parents + parent;
}

void FactorizedMatrix::DecodeRowToLeaves(int64_t row, std::vector<int64_t>* leaves) const {
  REPTILE_CHECK(row >= 0 && row < num_rows_);
  leaves->resize(trees_.size());
  for (size_t k = 0; k < trees_.size(); ++k) {
    (*leaves)[k] = (row / suffix_leaves_[k]) % trees_[k]->num_leaves();
  }
}

int64_t FactorizedMatrix::RowOfLeaves(const std::vector<int64_t>& leaves) const {
  REPTILE_CHECK_EQ(leaves.size(), trees_.size());
  int64_t row = 0;
  for (size_t k = 0; k < trees_.size(); ++k) {
    REPTILE_CHECK(leaves[k] >= 0 && leaves[k] < trees_[k]->num_leaves());
    row += leaves[k] * suffix_leaves_[k];
  }
  return row;
}

void FactorizedMatrix::DecodeRowToCodes(int64_t row, std::vector<int32_t>* codes) const {
  codes->resize(attr_of_flat_.size());
  int flat = 0;
  for (size_t k = 0; k < trees_.size(); ++k) {
    int64_t leaf = (row / suffix_leaves_[k]) % trees_[k]->num_leaves();
    const FTree& tree = *trees_[k];
    int64_t node = leaf;
    for (int l = tree.depth() - 1; l >= 0; --l) {
      (*codes)[flat + l] = tree.level(l).value[node];
      node = tree.level(l).parent[node];
    }
    flat += tree.depth();
  }
}

double FactorizedMatrix::ColumnValue(int c, const std::vector<int32_t>& codes) const {
  const FeatureColumn& column = columns_[c];
  if (!column.is_multi) {
    return column.ValueForCode(codes[FlatAttrIndex(column.attr)]);
  }
  std::vector<int32_t> key(column.attrs.size());
  for (size_t i = 0; i < column.attrs.size(); ++i) {
    key[i] = codes[FlatAttrIndex(column.attrs[i])];
  }
  return column.ValueForTuple(key);
}

void FactorizedMatrix::FeatureRow(int64_t row, std::vector<double>* out) const {
  std::vector<int32_t> codes;
  DecodeRowToCodes(row, &codes);
  out->resize(columns_.size());
  for (int c = 0; c < num_cols(); ++c) (*out)[c] = ColumnValue(c, codes);
}

std::vector<int64_t> GroupMatrixRows(const FactorizedMatrix& fm, const GroupByResult& groups,
                                     const std::vector<std::vector<int>>& tree_columns) {
  REPTILE_CHECK_EQ(static_cast<int>(tree_columns.size()), fm.num_trees());
  std::vector<int64_t> rows(groups.num_groups(), -1);
  std::vector<int64_t> leaves(fm.num_trees(), 0);
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    const int32_t* path = groups.key_tuple(g).data();
    bool found = true;
    for (int k = 0; k < fm.num_trees() && found; ++k) {
      const int width = static_cast<int>(tree_columns[k].size());
      if (width == 0) continue;  // intercept tree: its one leaf, 0
      leaves[k] = fm.tree(k).LeafIndex(path, width);
      found = leaves[k] >= 0;
      path += width;
    }
    if (found) rows[g] = fm.RowOfLeaves(leaves);
  }
  return rows;
}

std::vector<Moments> BuildGroupMoments(const FactorizedMatrix& fm, const Table& table,
                                       const std::vector<std::vector<int>>& tree_columns,
                                       int measure_column, const RowFilter& filter) {
  std::vector<int> key_columns;
  for (const std::vector<int>& columns : tree_columns) {
    key_columns.insert(key_columns.end(), columns.begin(), columns.end());
  }
  GroupByResult groups = GroupBy(table, key_columns, measure_column, filter);
  std::vector<int64_t> rows = GroupMatrixRows(fm, groups, tree_columns);
  std::vector<Moments> moments(static_cast<size_t>(fm.num_rows()));
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    if (rows[g] >= 0) moments[static_cast<size_t>(rows[g])] = groups.stats(g);
  }
  return moments;
}

}  // namespace reptile
