// Row iterator over the factorised matrix (paper Appendix C.2, Algorithm 1).
//
// Iterates the rows of the virtual feature matrix in row order, reporting for
// each step only the attributes whose value changed relative to the previous
// row. Vertically adjacent rows overlap heavily, so steps are amortised O(1)
// and MaterializeMatrix fills X incrementally, recomputing only the columns
// whose attributes changed.

#ifndef REPTILE_FACTOR_ROW_ITERATOR_H_
#define REPTILE_FACTOR_ROW_ITERATOR_H_

#include <cstdint>
#include <vector>

#include "factor/frep.h"
#include "factor/ftree.h"

namespace reptile {

/// One changed attribute in a row step.
struct AttrChange {
  int flat_attr;  // flattened attribute index in the FactorizedMatrix
  int32_t code;   // new value code
};

/// Forward iterator over matrix rows. Usage:
///
///   RowIterator it(fm);
///   for (bool ok = it.Start(&changed); ok; ok = it.Next(&changed)) { ... }
///
/// Start positions at row 0 and reports every attribute as changed; Next
/// advances and reports the (typically few) attributes that changed.
class RowIterator {
 public:
  explicit RowIterator(const FactorizedMatrix& fm);

  /// Positions at row 0 and fills `changed` with all attributes.
  /// Returns false when the matrix has no rows.
  bool Start(std::vector<AttrChange>* changed);

  /// Advances one row. Returns false at the end.
  bool Next(std::vector<AttrChange>* changed);

  int64_t row() const { return row_; }

  /// Current value code of a flattened attribute.
  int32_t code(int flat_attr) const;

  /// Current node index of a flattened attribute within its tree level.
  int64_t node(int flat_attr) const;

 private:
  const FactorizedMatrix* fm_;
  std::vector<FTree::Cursor> cursors_;  // one per tree, at the deepest level
  std::vector<int> attr_offset_;        // flat index of each tree's level 0
  int64_t row_ = -1;

  void AppendTreeChanges(int tree, int from_level, std::vector<AttrChange>* changed) const;
};

}  // namespace reptile

#endif  // REPTILE_FACTOR_ROW_ITERATOR_H_
