#include "fmatrix/gram.h"

#include "common/check.h"

namespace reptile {

double WeightedColumnSum(const FactorizedMatrix& fm, int column) {
  const FeatureColumn& col = fm.column(column);
  REPTILE_CHECK(!col.is_multi);
  const FTree& tree = fm.tree(col.attr.hierarchy);
  const FTree::Level& level = tree.level(col.attr.level);
  double sum = 0.0;
  for (int64_t node = 0; node < level.size(); ++node) {
    sum += static_cast<double>(level.leaf_count[node]) * col.ValueForCode(level.value[node]);
  }
  return sum;
}

namespace {

// Gram cell for two single-attribute columns, using the decomposed
// aggregates. `ci` must not come after `cj` in attribute order.
double SingleAttrCell(const FactorizedMatrix& fm, const DecomposedAggregates& agg, int ci,
                      int cj) {
  const FeatureColumn& a = fm.column(ci);
  const FeatureColumn& b = fm.column(cj);
  double n = static_cast<double>(fm.num_rows());
  if (a.attr.hierarchy != b.attr.hierarchy) {
    // Cross-hierarchy: cartesian product; the COF factorises into the two
    // leaf-weighted sums.
    double la = static_cast<double>(fm.tree(a.attr.hierarchy).num_leaves());
    double lb = static_cast<double>(fm.tree(b.attr.hierarchy).num_leaves());
    return n / (la * lb) * WeightedColumnSum(fm, ci) * WeightedColumnSum(fm, cj);
  }
  const FTree& tree = fm.tree(a.attr.hierarchy);
  double lk = static_cast<double>(tree.num_leaves());
  double multiplier = n / lk;
  int la_level = a.attr.level;
  int lb_level = b.attr.level;
  const FeatureColumn* upper = &a;  // column on the less specific level
  const FeatureColumn* lower = &b;
  if (la_level > lb_level) {
    std::swap(la_level, lb_level);
    std::swap(upper, lower);
  }
  const FTree::Level& deep = tree.level(lb_level);
  double sum = 0.0;
  if (la_level == lb_level) {
    for (int64_t node = 0; node < deep.size(); ++node) {
      sum += static_cast<double>(deep.leaf_count[node]) *
             upper->ValueForCode(deep.value[node]) * lower->ValueForCode(deep.value[node]);
    }
  } else {
    const std::vector<int64_t>& anc =
        agg.local(a.attr.hierarchy).AncestorTable(la_level, lb_level);
    const FTree::Level& shallow = tree.level(la_level);
    for (int64_t node = 0; node < deep.size(); ++node) {
      sum += static_cast<double>(deep.leaf_count[node]) *
             upper->ValueForCode(shallow.value[anc[node]]) *
             lower->ValueForCode(deep.value[node]);
    }
  }
  return multiplier * sum;
}

}  // namespace

Matrix FactorizedGram(const FactorizedMatrix& fm, const DecomposedAggregates& agg) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  int m = fm.num_cols();
  Matrix gram(m, m);
  for (int i = 0; i < m; ++i) {
    for (int j = i; j < m; ++j) {
      double cell = SingleAttrCell(fm, agg, i, j);
      gram(i, j) = cell;
      gram(j, i) = cell;
    }
  }
  return gram;
}

}  // namespace reptile
