// Per-hierarchy f-tree (paper Sections 2.2, 3.4 and Appendix C).
//
// An FTree is the factorised representation of one hierarchy at a given
// drill-down depth: level l holds the distinct attribute paths of length l+1,
// as a tree whose node identity is the path (robust to dirty functional
// dependencies). Nodes within a level are stored in tree order — the order
// rows of the (virtual) attribute matrix enumerate them — with subtree leaf
// counts, which are exactly the paper's local COUNT aggregates. The
// cross-product of several FTrees (plus per-value feature maps) is the
// factorised feature matrix; see factor/frep.h.

#ifndef REPTILE_FACTOR_FTREE_H_
#define REPTILE_FACTOR_FTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/status.h"
#include "data/table.h"

namespace reptile {

/// Immutable per-hierarchy path tree.
class FTree {
 public:
  /// One level of the tree; all vectors are indexed by node position in tree
  /// order.
  struct Level {
    std::vector<int32_t> value;        // attribute value code of the node
    std::vector<int64_t> parent;       // node index in the previous level (-1 at level 0)
    std::vector<int64_t> first_child;  // index of first child in the next level
    std::vector<int64_t> num_children; // 0 at the deepest level
    std::vector<int64_t> leaf_count;   // leaves in the node's subtree

    int64_t size() const { return static_cast<int64_t>(value.size()); }
  };

  /// Builds from explicit root-to-leaf paths (each of length `depth`).
  /// Paths are deduplicated and sorted; duplicates collapse to one leaf.
  static FTree FromPaths(std::vector<std::vector<int32_t>> paths, int depth);

  /// Builds from the distinct value combinations of `columns` (least specific
  /// first) over the rows of `table` matching `filter`. Only the distinct
  /// paths are collected and sorted; the tree equals FromPaths over every
  /// matching row's path.
  static FTree FromTable(const Table& table, const std::vector<int>& columns,
                         const RowFilter& filter = RowFilter());

  /// The intercept tree: a single level with a single node (value 0). Its
  /// cross product with any f-representation is the identity, which lets the
  /// intercept column reuse every factorised operator unchanged.
  static FTree Singleton();

  /// Rebuilds a tree from per-level `value` and `parent` vectors (the
  /// snapshot wire form; the derived vectors are recomputed, and anything
  /// already in them is ignored). Validates every structural invariant the
  /// builders guarantee — tree order, sorted sibling values, full-depth
  /// paths — and returns kParseError instead of undefined behavior when a
  /// persisted tree is corrupt.
  static Result<FTree> FromLevels(std::vector<Level> levels);

  int depth() const { return static_cast<int>(levels_.size()); }

  /// Accounted heap size of the level vectors, for byte-budgeted caches.
  size_t ApproxBytes() const;

  const Level& level(int l) const { return levels_[l]; }
  int64_t num_nodes(int l) const { return levels_[l].size(); }
  int64_t num_leaves() const { return levels_.empty() ? 1 : levels_.back().size(); }

  /// Node index at `target_level` on the path from the root to `node` at
  /// `level` (target_level <= level).
  int64_t AncestorAt(int level, int64_t node, int target_level) const;

  /// Leaf index of the given root-to-leaf path of codes, or -1 when absent.
  int64_t LeafIndex(const int32_t* path, int length) const;

  /// Longest prefix of `path` (length <= depth()) present in this tree, as a
  /// count of matched levels: depth() when the whole path is a known leaf, 0
  /// when even path[0] is absent. The incremental-append planner uses this to
  /// find the shallowest level a delta row dirties — a row matched to m
  /// levels introduces new distinct prefixes of every length > m.
  int MatchedPrefixDepth(const int32_t* path, int length) const;

  /// Value codes along the path from the root to leaf `leaf`.
  std::vector<int32_t> LeafPath(int64_t leaf) const;

  /// Iterates nodes of one level in tree order while tracking the ancestor
  /// path. Used by the row iterator and the cluster iterator.
  class Cursor {
   public:
    /// A cursor over nodes of `level`; positioned at the first node.
    Cursor(const FTree* tree, int level);

    /// Node index at `l` (l <= level) on the current path.
    int64_t node(int l) const { return path_[l]; }

    int64_t position() const { return path_[level_]; }
    bool AtEnd() const { return path_[level_] >= tree_->num_nodes(level_); }

    /// Moves to the next node in tree order. Returns the highest (closest to
    /// the root) level whose node changed, or -1 when the cursor is
    /// exhausted. After exhaustion the cursor wraps back to the first node,
    /// which suits mixed-radix iteration across trees.
    int Advance();

    /// Resets to the first node.
    void Reset();

   private:
    const FTree* tree_;
    int level_;
    std::vector<int64_t> path_;  // node index per level 0..level_
    bool wrapped_ = false;
  };

 private:
  std::vector<Level> levels_;

  void BuildFromSortedPaths(const std::vector<std::vector<int32_t>>& paths, int depth);
};

}  // namespace reptile

#endif  // REPTILE_FACTOR_FTREE_H_
