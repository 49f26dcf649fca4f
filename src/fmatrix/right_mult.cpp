#include "fmatrix/right_mult.h"

#include "common/check.h"
#include "factor/row_iterator.h"

namespace reptile {
namespace {

// Shared incremental driver: for each row, maintains the per-column feature
// value and the running output row out = sum_c f_c * B[c, :], updating only
// the columns whose attribute changed.
template <typename EmitRow>
void RightMultiplyImpl(const FactorizedMatrix& fm, const Matrix& b, const EmitRow& emit) {
  REPTILE_CHECK_EQ(b.rows(), static_cast<size_t>(fm.num_cols()));
  size_t p = b.cols();
  std::vector<double> acc(p, 0.0);
  std::vector<double> current(fm.num_cols(), 0.0);
  std::vector<int32_t> codes(fm.num_attrs(), 0);
  std::vector<std::vector<int>> multi_on_attr(fm.num_attrs());
  for (int mc : fm.MultiColumns()) {
    for (AttrId attr : fm.column(mc).attrs) {
      multi_on_attr[fm.FlatAttrIndex(attr)].push_back(mc);
    }
  }
  std::vector<char> dirty(fm.num_cols(), 0);
  std::vector<int32_t> key;

  auto apply_delta = [&](int c, double new_value) {
    double delta = new_value - current[c];
    if (delta == 0.0) return;
    current[c] = new_value;
    const double* b_row = b.RowPtr(static_cast<size_t>(c));
    for (size_t j = 0; j < p; ++j) acc[j] += delta * b_row[j];
  };

  RowIterator it(fm);
  std::vector<AttrChange> changed;
  for (bool ok = it.Start(&changed); ok; ok = it.Next(&changed)) {
    for (const AttrChange& change : changed) {
      codes[change.flat_attr] = change.code;
      for (int c : fm.ColumnsOnAttr(fm.FlatAttr(change.flat_attr))) {
        apply_delta(c, fm.column(c).ValueForCode(change.code));
      }
      for (int mc : multi_on_attr[change.flat_attr]) dirty[mc] = 1;
    }
    for (int mc : fm.MultiColumns()) {
      if (!dirty[mc]) continue;
      dirty[mc] = 0;
      const FeatureColumn& column = fm.column(mc);
      key.resize(column.attrs.size());
      for (size_t i = 0; i < column.attrs.size(); ++i) {
        key[i] = codes[fm.FlatAttrIndex(column.attrs[i])];
      }
      apply_delta(mc, column.ValueForTuple(key));
    }
    emit(it.row(), acc);
  }
}

// Per-tree leaf contribution: contrib[leaf * p + j] = sum over the tree's
// columns c of f_c(path value) * B[c][j]. Computed with one cursor pass and
// per-level partial sums, so shared ancestors are not recomputed.
std::vector<double> TreeLeafContributions(const FactorizedMatrix& fm, int tree_index,
                                          const Matrix& b) {
  const FTree& tree = fm.tree(tree_index);
  size_t p = b.cols();
  int depth = tree.depth();
  std::vector<double> out(static_cast<size_t>(tree.num_leaves()) * p, 0.0);
  // level_sum[l] = contribution of the columns on levels 0..l of the current
  // path; recomputing from the highest changed level keeps the pass O(nodes).
  Matrix level_sum(static_cast<size_t>(depth), p);
  FTree::Cursor cursor(&tree, depth - 1);
  int64_t leaf = 0;
  int changed_from = 0;
  for (;;) {
    for (int l = changed_from; l < depth; ++l) {
      const double* prev = l > 0 ? level_sum.RowPtr(static_cast<size_t>(l) - 1) : nullptr;
      double* cur = level_sum.RowPtr(static_cast<size_t>(l));
      for (size_t j = 0; j < p; ++j) cur[j] = prev != nullptr ? prev[j] : 0.0;
      int32_t code = tree.level(l).value[cursor.node(l)];
      for (int c : fm.ColumnsOnAttr(AttrId{tree_index, l})) {
        double f = fm.column(c).ValueForCode(code);
        if (f == 0.0) continue;
        const double* b_row = b.RowPtr(static_cast<size_t>(c));
        for (size_t j = 0; j < p; ++j) cur[j] += f * b_row[j];
      }
    }
    const double* deepest = level_sum.RowPtr(static_cast<size_t>(depth) - 1);
    double* out_row = out.data() + static_cast<size_t>(leaf) * p;
    for (size_t j = 0; j < p; ++j) out_row[j] = deepest[j];
    changed_from = cursor.Advance();
    if (changed_from < 0) break;
    ++leaf;
  }
  return out;
}

// Fast path for single-attribute matrices: X · B decomposes into per-tree
// leaf-contribution patterns combined by nested repetition — roughly one
// p-vector addition per output cell, independent of the number of columns.
void RightMultiplyBlocks(const FactorizedMatrix& fm, const Matrix& b, double* out) {
  size_t p = b.cols();
  // cur holds the combined contributions over trees 0..k, one p-vector per
  // prefix combination.
  std::vector<double> cur(p, 0.0);
  for (int k = 0; k < fm.num_trees(); ++k) {
    std::vector<double> tree_contrib = TreeLeafContributions(fm, k, b);
    size_t prefix = cur.size() / p;
    size_t leaves = static_cast<size_t>(fm.tree(k).num_leaves());
    bool last = k + 1 == fm.num_trees();
    std::vector<double> next(last ? 0 : prefix * leaves * p);
    double* dst = last ? out : next.data();  // final stage writes the output
    for (size_t i = 0; i < prefix; ++i) {
      const double* base = cur.data() + i * p;
      const double* leaf_row = tree_contrib.data();
      for (size_t leaf = 0; leaf < leaves; ++leaf) {
        for (size_t j = 0; j < p; ++j) dst[j] = base[j] + leaf_row[j];
        dst += p;
        leaf_row += p;
      }
    }
    if (!last) cur = std::move(next);
  }
}

}  // namespace

Matrix FactorizedRightMultiply(const FactorizedMatrix& fm, const Matrix& b) {
  Matrix out(static_cast<size_t>(fm.num_rows()), b.cols());
  if (fm.AllSingleAttribute()) {
    RightMultiplyBlocks(fm, b, out.mutable_data().data());
    return out;
  }
  RightMultiplyImpl(fm, b, [&](int64_t row, const std::vector<double>& acc) {
    double* out_row = out.RowPtr(static_cast<size_t>(row));
    for (size_t j = 0; j < acc.size(); ++j) out_row[j] = acc[j];
  });
  return out;
}

std::vector<double> FactorizedVecRightMultiply(const FactorizedMatrix& fm,
                                               const std::vector<double>& beta) {
  std::vector<double> out;
  FactorizedVecRightMultiply(fm, beta, &out);
  return out;
}

void FactorizedVecRightMultiply(const FactorizedMatrix& fm, const std::vector<double>& beta,
                                std::vector<double>* out) {
  Matrix b = Matrix::ColumnVector(beta);
  out->resize(static_cast<size_t>(fm.num_rows()));
  if (fm.AllSingleAttribute()) {
    RightMultiplyBlocks(fm, b, out->data());
    return;
  }
  RightMultiplyImpl(fm, b, [&](int64_t row, const std::vector<double>& acc) {
    (*out)[static_cast<size_t>(row)] = acc[0];
  });
}

}  // namespace reptile
