// Per-cluster factorised matrix operations (paper Appendix F,
// Algorithms 5-7).
//
// Clusters of the multi-level model are the combinations of every attribute
// except the drilled (intra) one; with the drilled hierarchy last in the
// attribute order they are contiguous row ranges, enumerated here without
// materialising anything. Within a cluster all inter-cluster columns are
// constant, so a cluster's gram / left / right products reduce to the
// cluster size, the intra-column child sums, and O(q^2) scalar work.
//
// The per-cluster operators take single-attribute matrices only
// (FactorizedMatrix::AllSingleAttribute()); a matrix with a multi-attribute
// column (Appendix H) is materialised (materialize.h) and fitted by the
// dense backend instead. ClusterIterator and ClusterBeginsOf read only the
// trees, so the dense backend uses them for any matrix.

#ifndef REPTILE_FMATRIX_CLUSTER_OPS_H_
#define REPTILE_FMATRIX_CLUSTER_OPS_H_

#include <functional>
#include <memory>
#include <vector>

#include "factor/frep.h"
#include "linalg/matrix.h"

namespace reptile {

/// Enumerates clusters in row order, exposing the constant (inter) attribute
/// codes and the intra attribute's child node range.
class ClusterIterator {
 public:
  explicit ClusterIterator(const FactorizedMatrix& fm);

  /// Positions at the first cluster; false when the matrix is empty.
  bool Start();

  /// Advances; false at the end.
  bool Next();

  int64_t cluster() const { return cluster_; }
  int64_t row_begin() const { return row_begin_; }

  /// Number of rows (= children of the intra attribute) in this cluster.
  int64_t num_children() const { return num_children_; }

  /// First child node index at the last tree's deepest level.
  int64_t child_node_begin() const { return child_begin_; }

  /// Current value code of any non-intra attribute.
  int32_t inter_code(int flat_attr) const { return codes_[flat_attr]; }
  const std::vector<int32_t>& codes() const { return codes_; }

  /// Flat attributes whose code changed in the last Start()/Next() — the
  /// adjacency the incremental per-cluster operators (Algorithm 5) exploit.
  const std::vector<int>& changed_attrs() const { return changed_attrs_; }

 private:
  const FactorizedMatrix* fm_;
  std::vector<FTree::Cursor> prefix_cursors_;  // trees 0 .. h-2, deepest level
  std::unique_ptr<FTree::Cursor> parent_cursor_;  // last tree at depth-2; null if depth==1
  std::vector<int> attr_offset_;
  std::vector<int32_t> codes_;
  std::vector<int> changed_attrs_;
  int64_t cluster_ = -1;
  int64_t row_begin_ = 0;
  int64_t num_children_ = 0;
  int64_t child_begin_ = 0;

  void RefreshChildRange();
  void RefreshTreeCodes(int tree, int from_level);
};

/// Cluster boundaries of the factorised matrix in row order (first row of
/// each cluster plus the sentinel n) — the input DenseEmBackend expects.
std::vector<int64_t> ClusterBeginsOf(const FactorizedMatrix& fm);

/// Per-cluster outputs delivered to the visitor of ForEachClusterGram.
struct ClusterData {
  int64_t cluster = 0;
  int64_t row_begin = 0;
  int64_t size = 0;
  int64_t child_node_begin = 0;               // first row's node at the intra level
  const Matrix* gram = nullptr;               // q x q: Z_i^T Z_i over `cols`
  const std::vector<double>* values = nullptr;  // q: inter columns' values (intra unused)
  const std::vector<int32_t>* codes = nullptr;  // ClusterIterator::codes()
};

/// Streams every cluster's gram matrix over the selected columns to `emit`
/// (Algorithm 5): only the gram cells an adjacent cluster's changed
/// attributes touch are recomputed; the rest are rescaled by the size ratio.
void ForEachClusterGram(const FactorizedMatrix& fm, const std::vector<int>& cols,
                        const std::function<void(const ClusterData&)>& emit);

/// Everything about the clusters of Z = X(cols) that stays fixed across EM
/// iterations, built once per fit and read in place by every iteration
/// (Appendix D: X_i^T X_i is precomputed, not re-derived per iteration).
/// Positions index `cols`; a position is inter when its column is constant
/// within every cluster and intra when it varies with the intra attribute.
struct ClusterTable {
  std::vector<int> cols;
  std::vector<int> inter;
  std::vector<int> intra;
  std::vector<int64_t> row_begin;     // G + 1: cluster g spans [row_begin[g], row_begin[g+1])
  std::vector<double> gram;           // G x q x q, row-major: Z_g^T Z_g
  std::vector<double> inter_values;   // G x |inter|: the inter columns' values, in `inter` order
  // Present only when `intra` is non-empty (factorised tables): each
  // cluster's first node at the intra level and its attribute codes
  // (G x num_attrs), from which intra values are re-derived per row rather
  // than stored per row.
  std::vector<int64_t> child_node_begin;
  std::vector<int32_t> codes;

  size_t q() const { return cols.size(); }
  int64_t num_clusters() const { return static_cast<int64_t>(row_begin.size()) - 1; }
  const double* Gram(int64_t g) const { return gram.data() + static_cast<size_t>(g) * q() * q(); }
  const double* InterValues(int64_t g) const {
    return inter_values.data() + static_cast<size_t>(g) * inter.size();
  }
};

/// Builds the table from ForEachClusterGram's stream, so its grams carry
/// Algorithm 5's exact bits.
ClusterTable BuildClusterTable(const FactorizedMatrix& fm, const std::vector<int>& cols);

/// Per-cluster left multiplication (Algorithm 6): row g of `ztr` (G x q)
/// becomes Z_g^T r_g. Inter positions read value x (prefix[end] -
/// prefix[begin]) off `r_prefix` (RunningPrefix of r, length n + 1); intra
/// positions sum value x r over the cluster's rows in order, so `r` may be
/// empty when the table has no intra position.
void ClusterLeftMultiply(const FactorizedMatrix& fm, const ClusterTable& table,
                         const std::vector<double>& r, const std::vector<double>& r_prefix,
                         Matrix* ztr);

/// Per-cluster right multiplication (Algorithm 7): out[row] = Z_g(row) · b_g
/// for every row, where row g of `b` (G x q) holds cluster g's
/// coefficients. `out` must have length n.
void ClusterRightMultiply(const FactorizedMatrix& fm, const ClusterTable& table, const Matrix& b,
                          std::vector<double>* out);

}  // namespace reptile

#endif  // REPTILE_FMATRIX_CLUSTER_OPS_H_
