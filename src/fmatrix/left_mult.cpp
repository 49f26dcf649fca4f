#include "fmatrix/left_mult.h"

#include "common/check.h"

namespace reptile {

void RunningPrefix(const std::vector<double>& r, std::vector<double>* prefix) {
  prefix->resize(r.size() + 1);
  double* p = prefix->data();
  p[0] = 0.0;
  for (size_t i = 0; i < r.size(); ++i) p[i + 1] = p[i] + r[i];
}

std::vector<double> FactorizedVecLeftMultiply(const FactorizedMatrix& fm,
                                              const std::vector<double>& r) {
  std::vector<double> prefix;
  std::vector<double> out;
  FactorizedVecLeftMultiply(fm, r, &prefix, &out);
  return out;
}

void FactorizedVecLeftMultiply(const FactorizedMatrix& fm, const std::vector<double>& r,
                               std::vector<double>* prefix, std::vector<double>* out) {
  REPTILE_CHECK(fm.AllSingleAttribute());
  REPTILE_CHECK_EQ(static_cast<int64_t>(r.size()), fm.num_rows());
  RunningPrefix(r, prefix);
  const std::vector<double>& sums = *prefix;
  out->assign(static_cast<size_t>(fm.num_cols()), 0.0);
  for (int c = 0; c < fm.num_cols(); ++c) {
    const FeatureColumn& col = fm.column(c);
    const FTree& tree = fm.tree(col.attr.hierarchy);
    const FTree::Level& level = tree.level(col.attr.level);
    int64_t suffix = fm.SuffixLeaves(col.attr.hierarchy);
    int64_t repeats = fm.PrefixLeaves(col.attr.hierarchy);
    double acc = 0.0;
    int64_t pos = 0;
    for (int64_t rep = 0; rep < repeats; ++rep) {
      for (int64_t node = 0; node < level.size(); ++node) {
        int64_t len = level.leaf_count[node] * suffix;
        acc += (sums[pos + len] - sums[pos]) * col.ValueForCode(level.value[node]);
        pos += len;
      }
    }
    REPTILE_DCHECK(pos == fm.num_rows());
    (*out)[static_cast<size_t>(c)] = acc;
  }
}

}  // namespace reptile
