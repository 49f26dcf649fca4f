#include "fmatrix/left_mult.h"

#include "common/check.h"
#include "factor/row_iterator.h"

namespace reptile {
namespace {

// Accumulates r^T X into `out` given the prefix sums of r. `prefix[i]` is the
// sum of r[0..i). Handles single-attribute columns via range sums; multi
// columns are accumulated by the caller's row pass.
void AccumulateSingleColumns(const FactorizedMatrix& fm, const std::vector<double>& prefix,
                             double* out) {
  for (int c = 0; c < fm.num_cols(); ++c) {
    const FeatureColumn& col = fm.column(c);
    if (col.is_multi) continue;
    const FTree& tree = fm.tree(col.attr.hierarchy);
    const FTree::Level& level = tree.level(col.attr.level);
    int64_t suffix = fm.SuffixLeaves(col.attr.hierarchy);
    int64_t repeats = fm.PrefixLeaves(col.attr.hierarchy);
    double acc = 0.0;
    int64_t pos = 0;
    for (int64_t rep = 0; rep < repeats; ++rep) {
      for (int64_t node = 0; node < level.size(); ++node) {
        int64_t len = level.leaf_count[node] * suffix;
        acc += (prefix[pos + len] - prefix[pos]) * col.ValueForCode(level.value[node]);
        pos += len;
      }
    }
    REPTILE_DCHECK(pos == fm.num_rows());
    out[c] = acc;
  }
}

// One row-enumeration pass accumulating r^T X for the multi-attribute
// columns only (Appendix H hybrid path).
void AccumulateMultiColumns(const FactorizedMatrix& fm, const std::vector<double>& r,
                            double* out) {
  if (fm.MultiColumns().empty()) return;
  RowIterator it(fm);
  std::vector<AttrChange> changed;
  std::vector<int32_t> codes(fm.num_attrs(), 0);
  std::vector<std::vector<int>> multi_on_attr(fm.num_attrs());
  for (int mc : fm.MultiColumns()) {
    for (AttrId attr : fm.column(mc).attrs) {
      multi_on_attr[fm.FlatAttrIndex(attr)].push_back(mc);
    }
  }
  std::vector<double> current(fm.num_cols(), 0.0);
  std::vector<char> dirty(fm.num_cols(), 0);
  std::vector<int32_t> key;
  for (bool ok = it.Start(&changed); ok; ok = it.Next(&changed)) {
    for (const AttrChange& change : changed) {
      codes[change.flat_attr] = change.code;
      for (int mc : multi_on_attr[change.flat_attr]) dirty[mc] = 1;
    }
    for (int mc : fm.MultiColumns()) {
      if (dirty[mc]) {
        dirty[mc] = 0;
        const FeatureColumn& column = fm.column(mc);
        key.resize(column.attrs.size());
        for (size_t i = 0; i < column.attrs.size(); ++i) {
          key[i] = codes[fm.FlatAttrIndex(column.attrs[i])];
        }
        current[mc] = column.ValueForTuple(key);
      }
      out[mc] += current[mc] * r[static_cast<size_t>(it.row())];
    }
  }
}

}  // namespace

void RunningPrefix(const std::vector<double>& r, std::vector<double>* prefix) {
  prefix->resize(r.size() + 1);
  double* p = prefix->data();
  p[0] = 0.0;
  for (size_t i = 0; i < r.size(); ++i) p[i + 1] = p[i] + r[i];
}

Matrix FactorizedLeftMultiply(const FactorizedMatrix& fm, const Matrix& a) {
  REPTILE_CHECK_EQ(static_cast<int64_t>(a.cols()), fm.num_rows());
  Matrix out(a.rows(), static_cast<size_t>(fm.num_cols()));
  std::vector<double> prefix(static_cast<size_t>(fm.num_rows()) + 1, 0.0);
  std::vector<double> row(static_cast<size_t>(fm.num_rows()));
  for (size_t q = 0; q < a.rows(); ++q) {
    const double* a_row = a.RowPtr(q);
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = a_row[i];
      prefix[i + 1] = prefix[i] + a_row[i];
    }
    AccumulateSingleColumns(fm, prefix, out.RowPtr(q));
    AccumulateMultiColumns(fm, row, out.RowPtr(q));
  }
  return out;
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
  REPTILE_CHECK_EQ(static_cast<int64_t>(r.size()), fm.num_rows());
  RunningPrefix(r, prefix);
  out->assign(static_cast<size_t>(fm.num_cols()), 0.0);
  AccumulateSingleColumns(fm, *prefix, out->data());
  AccumulateMultiColumns(fm, r, out->data());
}

}  // namespace reptile
