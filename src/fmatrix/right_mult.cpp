#include "fmatrix/right_mult.h"

#include "common/check.h"

namespace reptile {
namespace {

// Per-tree leaf contribution: out[leaf] = sum over the tree's columns c of
// f_c(path value) * beta[c]. Computed with one cursor pass and per-level
// partial sums, so shared ancestors are not recomputed.
std::vector<double> TreeLeafContributions(const FactorizedMatrix& fm, int tree_index,
                                          const std::vector<double>& beta) {
  const FTree& tree = fm.tree(tree_index);
  int depth = tree.depth();
  std::vector<double> out(static_cast<size_t>(tree.num_leaves()), 0.0);
  // level_sum[l] = contribution of the columns on levels 0..l of the current
  // path; recomputing from the highest changed level keeps the pass O(nodes).
  std::vector<double> level_sum(static_cast<size_t>(depth), 0.0);
  FTree::Cursor cursor(&tree, depth - 1);
  int64_t leaf = 0;
  int changed_from = 0;
  for (;;) {
    for (int l = changed_from; l < depth; ++l) {
      double sum = l > 0 ? level_sum[static_cast<size_t>(l) - 1] : 0.0;
      int32_t code = tree.level(l).value[cursor.node(l)];
      for (int c : fm.ColumnsOnAttr(AttrId{tree_index, l})) {
        double f = fm.column(c).ValueForCode(code);
        if (f == 0.0) continue;
        sum += f * beta[static_cast<size_t>(c)];
      }
      level_sum[static_cast<size_t>(l)] = sum;
    }
    out[static_cast<size_t>(leaf)] = level_sum[static_cast<size_t>(depth) - 1];
    changed_from = cursor.Advance();
    if (changed_from < 0) break;
    ++leaf;
  }
  return out;
}

}  // namespace

std::vector<double> FactorizedVecRightMultiply(const FactorizedMatrix& fm,
                                               const std::vector<double>& beta) {
  std::vector<double> out;
  FactorizedVecRightMultiply(fm, beta, &out);
  return out;
}

void FactorizedVecRightMultiply(const FactorizedMatrix& fm, const std::vector<double>& beta,
                                std::vector<double>* out) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  REPTILE_CHECK_EQ(beta.size(), static_cast<size_t>(fm.num_cols()));
  out->resize(static_cast<size_t>(fm.num_rows()));
  // cur holds the combined contributions over trees 0..k, one per prefix
  // combination; the final stage writes the output.
  std::vector<double> cur(1, 0.0);
  for (int k = 0; k < fm.num_trees(); ++k) {
    std::vector<double> tree_contrib = TreeLeafContributions(fm, k, beta);
    bool last = k + 1 == fm.num_trees();
    std::vector<double> next(last ? 0 : cur.size() * tree_contrib.size());
    double* dst = last ? out->data() : next.data();
    for (double base : cur) {
      for (double leaf_value : tree_contrib) *dst++ = base + leaf_value;
    }
    if (!last) cur = std::move(next);
  }
}

}  // namespace reptile
