#include "fmatrix/cluster_ops.h"

#include <algorithm>

#include "common/check.h"

namespace reptile {

ClusterIterator::ClusterIterator(const FactorizedMatrix& fm) : fm_(&fm) {
  REPTILE_CHECK_GT(fm.num_trees(), 0);
  int flat = 0;
  for (int k = 0; k < fm.num_trees(); ++k) {
    attr_offset_.push_back(flat);
    flat += fm.tree(k).depth();
  }
  for (int k = 0; k + 1 < fm.num_trees(); ++k) {
    prefix_cursors_.emplace_back(&fm.tree(k), fm.tree(k).depth() - 1);
  }
  const FTree& last = fm.tree(fm.num_trees() - 1);
  if (last.depth() >= 2) {
    parent_cursor_ = std::make_unique<FTree::Cursor>(&last, last.depth() - 2);
  }
  codes_.assign(fm.num_attrs(), 0);
}

void ClusterIterator::RefreshTreeCodes(int tree, int from_level) {
  const FTree& t = fm_->tree(tree);
  bool is_last = tree == fm_->num_trees() - 1;
  const FTree::Cursor* cursor =
      is_last ? parent_cursor_.get() : &prefix_cursors_[static_cast<size_t>(tree)];
  if (cursor == nullptr) return;  // last tree with depth 1: no inter levels
  int top = is_last ? t.depth() - 2 : t.depth() - 1;
  for (int l = from_level; l <= top; ++l) {
    codes_[attr_offset_[tree] + l] = t.level(l).value[cursor->node(l)];
    changed_attrs_.push_back(attr_offset_[tree] + l);
  }
}

void ClusterIterator::RefreshChildRange() {
  const FTree& last = fm_->tree(fm_->num_trees() - 1);
  if (parent_cursor_ != nullptr) {
    const FTree::Level& parent_level = last.level(last.depth() - 2);
    int64_t parent = parent_cursor_->position();
    child_begin_ = parent_level.first_child[parent];
    num_children_ = parent_level.num_children[parent];
  } else {
    child_begin_ = 0;
    num_children_ = last.num_nodes(0);
  }
}

bool ClusterIterator::Start() {
  if (fm_->num_rows() == 0) return false;
  for (auto& cursor : prefix_cursors_) cursor.Reset();
  if (parent_cursor_ != nullptr) parent_cursor_->Reset();
  cluster_ = 0;
  row_begin_ = 0;
  changed_attrs_.clear();
  for (int k = 0; k < fm_->num_trees(); ++k) RefreshTreeCodes(k, 0);
  RefreshChildRange();
  return true;
}

bool ClusterIterator::Next() {
  row_begin_ += num_children_;
  changed_attrs_.clear();
  int last = fm_->num_trees() - 1;
  if (parent_cursor_ != nullptr) {
    int top = parent_cursor_->Advance();
    if (top >= 0) {
      RefreshTreeCodes(last, top);
      RefreshChildRange();
      ++cluster_;
      return true;
    }
    RefreshTreeCodes(last, 0);  // wrapped back to the first parent
  }
  for (int k = last - 1; k >= 0; --k) {
    int top = prefix_cursors_[static_cast<size_t>(k)].Advance();
    if (top >= 0) {
      RefreshTreeCodes(k, top);
      RefreshChildRange();
      ++cluster_;
      return true;
    }
    RefreshTreeCodes(k, 0);
  }
  return false;
}

std::vector<int64_t> ClusterBeginsOf(const FactorizedMatrix& fm) {
  std::vector<int64_t> begins;
  ClusterIterator it(fm);
  for (bool ok = it.Start(); ok; ok = it.Next()) {
    begins.push_back(it.row_begin());
  }
  begins.push_back(fm.num_rows());
  return begins;
}

namespace {

// Column classification and lookup tables shared by the per-cluster
// operators, hoisted out of the cluster loop.
struct ClusterColumns {
  // Positions (into `cols`) of columns constant within a cluster, and of
  // columns varying with the intra attribute.
  std::vector<int> inter;
  std::vector<int> intra;
  int intra_flat = -1;  // flat index of the intra attribute

  // flat attr -> inter positions of the columns on it.
  std::vector<std::vector<int>> inter_on_flat;
};

ClusterColumns ClassifyColumns(const FactorizedMatrix& fm, const std::vector<int>& cols) {
  ClusterColumns out;
  AttrId intra = fm.IntraAttr();
  out.intra_flat = fm.FlatAttrIndex(intra);
  out.inter_on_flat.assign(static_cast<size_t>(fm.num_attrs()), {});
  for (size_t i = 0; i < cols.size(); ++i) {
    const FeatureColumn& column = fm.column(cols[i]);
    int pos = static_cast<int>(i);
    if (column.attr == intra) {
      out.intra.push_back(pos);
    } else {
      out.inter.push_back(pos);
      out.inter_on_flat[static_cast<size_t>(fm.FlatAttrIndex(column.attr))].push_back(pos);
    }
  }
  return out;
}

// Value of column `column_index` in a cluster whose attribute codes are
// `codes` (flattened order); for intra columns `child_code` supplies the
// intra attribute's value.
double ColumnValueInCluster(const FactorizedMatrix& fm, int column_index, const int32_t* codes,
                            int intra_flat, int32_t child_code) {
  const FeatureColumn& column = fm.column(column_index);
  int flat = fm.FlatAttrIndex(column.attr);
  int32_t code = flat == intra_flat ? child_code : codes[flat];
  return column.ValueForCode(code);
}

// The intra attribute's level: a cluster's rows are consecutive nodes here.
const FTree::Level& IntraLevel(const FactorizedMatrix& fm) {
  const FTree& last_tree = fm.tree(fm.num_trees() - 1);
  return last_tree.level(last_tree.depth() - 1);
}

// Intra-column values of a table's rows, re-derived from each cluster's
// stored codes and the intra level's node values.
class IntraValues {
 public:
  IntraValues(const FactorizedMatrix& fm, const ClusterTable& table)
      : fm_(&fm),
        table_(&table),
        child_level_(&IntraLevel(fm)),
        intra_flat_(fm.FlatAttrIndex(fm.IntraAttr())) {}

  // Value at position `pos` of the `child`-th row of cluster g.
  double operator()(int64_t g, int64_t child, int pos) {
    size_t cluster = static_cast<size_t>(g);
    int32_t child_code = child_level_->value[table_->child_node_begin[cluster] + child];
    return ColumnValueInCluster(
        *fm_, table_->cols[static_cast<size_t>(pos)],
        table_->codes.data() + cluster * static_cast<size_t>(fm_->num_attrs()), intra_flat_,
        child_code);
  }

 private:
  const FactorizedMatrix* fm_;
  const ClusterTable* table_;
  const FTree::Level* child_level_;
  int intra_flat_;
};

}  // namespace

void ForEachClusterGram(const FactorizedMatrix& fm, const std::vector<int>& cols,
                        const std::function<void(const ClusterData&)>& emit) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  size_t q = cols.size();
  ClusterColumns cc = ClassifyColumns(fm, cols);
  const FTree::Level& child_level = IntraLevel(fm);

  Matrix gram(q, q);
  std::vector<double> values(q, 0.0);  // inter values for this cluster
  std::vector<double> child_values(cc.intra.size(), 0.0);
  std::vector<double> s1(cc.intra.size(), 0.0);
  Matrix s2(cc.intra.size(), cc.intra.size());
  std::vector<int> changed_positions;
  std::vector<char> changed_flag(q, 0);
  double n_prev = 0.0;
  bool first = true;

  ClusterIterator it(fm);
  for (bool ok = it.Start(); ok; ok = it.Next()) {
    int64_t n_c = it.num_children();
    double n_c_d = static_cast<double>(n_c);

    // --- Changed inter columns (Algorithm 5: adjacent clusters differ in
    // few attributes; only the touched rows/columns of the gram are
    // recomputed, the rest is rescaled by the size ratio). ---
    changed_positions.clear();
    if (first) {
      changed_positions = cc.inter;
    } else {
      for (int flat : it.changed_attrs()) {
        for (int pos : cc.inter_on_flat[static_cast<size_t>(flat)]) {
          changed_positions.push_back(pos);
        }
      }
    }
    for (int pos : changed_positions) {
      values[static_cast<size_t>(pos)] =
          ColumnValueInCluster(fm, cols[static_cast<size_t>(pos)], it.codes().data(),
                               cc.intra_flat, 0);
      changed_flag[static_cast<size_t>(pos)] = 1;
    }

    // --- Intra column sums over the children (always recomputed: the child
    // set is new in every cluster). ---
    std::fill(s1.begin(), s1.end(), 0.0);
    std::fill(s2.mutable_data().begin(), s2.mutable_data().end(), 0.0);
    for (int64_t child = 0; child < n_c; ++child) {
      int32_t child_code = child_level.value[it.child_node_begin() + child];
      for (size_t i = 0; i < cc.intra.size(); ++i) {
        child_values[i] =
            ColumnValueInCluster(fm, cols[static_cast<size_t>(cc.intra[i])], it.codes().data(),
                                 cc.intra_flat, child_code);
      }
      for (size_t i = 0; i < cc.intra.size(); ++i) {
        s1[i] += child_values[i];
        for (size_t j = i; j < cc.intra.size(); ++j) {
          s2(i, j) += child_values[i] * child_values[j];
        }
      }
    }

    // --- Gram update. ---
    bool size_changed = first || n_c_d != n_prev;
    double ratio = first || n_prev == 0.0 ? 0.0 : n_c_d / n_prev;
    if (first || !changed_positions.empty() || size_changed) {
      for (size_t a = 0; a < cc.inter.size(); ++a) {
        int i = cc.inter[a];
        bool i_changed = first || changed_flag[static_cast<size_t>(i)];
        double vi = values[static_cast<size_t>(i)];
        for (size_t b = a; b < cc.inter.size(); ++b) {
          int j = cc.inter[b];
          double cell;
          if (i_changed || changed_flag[static_cast<size_t>(j)] || first) {
            cell = vi * values[static_cast<size_t>(j)] * n_c_d;
          } else if (size_changed) {
            cell = gram(static_cast<size_t>(i), static_cast<size_t>(j)) * ratio;
          } else {
            continue;  // untouched pair, same size: cell is already correct
          }
          gram(static_cast<size_t>(i), static_cast<size_t>(j)) = cell;
          gram(static_cast<size_t>(j), static_cast<size_t>(i)) = cell;
        }
      }
    }
    // Inter x intra and intra x intra involve the (new) child sums.
    for (size_t a = 0; a < cc.inter.size(); ++a) {
      int i = cc.inter[a];
      double vi = values[static_cast<size_t>(i)];
      for (size_t b = 0; b < cc.intra.size(); ++b) {
        int j = cc.intra[b];
        double cell = vi * s1[b];
        gram(static_cast<size_t>(i), static_cast<size_t>(j)) = cell;
        gram(static_cast<size_t>(j), static_cast<size_t>(i)) = cell;
      }
    }
    for (size_t a = 0; a < cc.intra.size(); ++a) {
      for (size_t b = a; b < cc.intra.size(); ++b) {
        gram(static_cast<size_t>(cc.intra[a]), static_cast<size_t>(cc.intra[b])) = s2(a, b);
        gram(static_cast<size_t>(cc.intra[b]), static_cast<size_t>(cc.intra[a])) = s2(a, b);
      }
    }
    for (int pos : changed_positions) changed_flag[static_cast<size_t>(pos)] = 0;

    ClusterData data;
    data.cluster = it.cluster();
    data.row_begin = it.row_begin();
    data.size = n_c;
    data.child_node_begin = it.child_node_begin();
    data.gram = &gram;
    data.values = &values;
    data.codes = &it.codes();
    emit(data);
    n_prev = n_c_d;
    first = false;
  }
}

ClusterTable BuildClusterTable(const FactorizedMatrix& fm, const std::vector<int>& cols) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  ClusterColumns cc = ClassifyColumns(fm, cols);
  ClusterTable table;
  table.cols = cols;
  table.inter = std::move(cc.inter);
  table.intra = std::move(cc.intra);
  size_t clusters = static_cast<size_t>(fm.num_clusters());
  size_t q = cols.size();
  bool keep_codes = !table.intra.empty();
  table.row_begin.reserve(clusters + 1);
  table.gram.reserve(clusters * q * q);
  table.inter_values.reserve(clusters * table.inter.size());
  if (keep_codes) {
    table.child_node_begin.reserve(clusters);
    table.codes.reserve(clusters * static_cast<size_t>(fm.num_attrs()));
  }
  ForEachClusterGram(fm, cols, [&](const ClusterData& data) {
    table.row_begin.push_back(data.row_begin);
    table.gram.insert(table.gram.end(), data.gram->data().begin(), data.gram->data().end());
    for (int pos : table.inter) {
      table.inter_values.push_back((*data.values)[static_cast<size_t>(pos)]);
    }
    if (keep_codes) {
      table.child_node_begin.push_back(data.child_node_begin);
      table.codes.insert(table.codes.end(), data.codes->begin(), data.codes->end());
    }
  });
  table.row_begin.push_back(fm.num_rows());
  return table;
}

void ClusterLeftMultiply(const FactorizedMatrix& fm, const ClusterTable& table,
                         const std::vector<double>& r, const std::vector<double>& r_prefix,
                         Matrix* ztr) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  int64_t clusters = table.num_clusters();
  REPTILE_CHECK_EQ(static_cast<int64_t>(ztr->rows()), clusters);
  REPTILE_CHECK_EQ(ztr->cols(), table.q());
  if (!table.inter.empty()) {
    REPTILE_CHECK_EQ(static_cast<int64_t>(r_prefix.size()), fm.num_rows() + 1);
  }
  if (!table.intra.empty()) {
    REPTILE_CHECK_EQ(static_cast<int64_t>(r.size()), fm.num_rows());
  }
  IntraValues intra_value(fm, table);
  for (int64_t g = 0; g < clusters; ++g) {
    size_t begin = static_cast<size_t>(table.row_begin[static_cast<size_t>(g)]);
    size_t end = static_cast<size_t>(table.row_begin[static_cast<size_t>(g) + 1]);
    double* out = ztr->RowPtr(static_cast<size_t>(g));
    if (!table.inter.empty()) {
      double r_sum = r_prefix[end] - r_prefix[begin];
      const double* values = table.InterValues(g);
      for (size_t a = 0; a < table.inter.size(); ++a) out[table.inter[a]] = values[a] * r_sum;
    }
    for (int pos : table.intra) {
      double acc = 0.0;
      for (size_t row = begin; row < end; ++row) {
        acc += intra_value(g, static_cast<int64_t>(row - begin), pos) * r[row];
      }
      out[pos] = acc;
    }
  }
}

void ClusterRightMultiply(const FactorizedMatrix& fm, const ClusterTable& table, const Matrix& b,
                          std::vector<double>* out) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  int64_t clusters = table.num_clusters();
  REPTILE_CHECK_EQ(static_cast<int64_t>(b.rows()), clusters);
  REPTILE_CHECK_EQ(b.cols(), table.q());
  REPTILE_CHECK_EQ(static_cast<int64_t>(out->size()), fm.num_rows());
  IntraValues intra_value(fm, table);
  for (int64_t g = 0; g < clusters; ++g) {
    size_t begin = static_cast<size_t>(table.row_begin[static_cast<size_t>(g)]);
    size_t end = static_cast<size_t>(table.row_begin[static_cast<size_t>(g) + 1]);
    const double* b_row = b.RowPtr(static_cast<size_t>(g));
    const double* values = table.InterValues(g);
    double base = 0.0;
    for (size_t a = 0; a < table.inter.size(); ++a) base += values[a] * b_row[table.inter[a]];
    double* dst = out->data() + begin;
    if (table.intra.empty()) {
      std::fill(dst, dst + (end - begin), base);
      continue;
    }
    for (size_t child = 0; child < end - begin; ++child) {
      double value = base;
      for (int pos : table.intra) {
        value += intra_value(g, static_cast<int64_t>(child), pos) * b_row[pos];
      }
      dst[child] = value;
    }
  }
}

}  // namespace reptile
