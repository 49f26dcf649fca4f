#include "factor/ftree.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/hashing.h"

namespace reptile {

FTree FTree::FromPaths(std::vector<std::vector<int32_t>> paths, int depth) {
  REPTILE_CHECK_GT(depth, 0);
  REPTILE_CHECK(!paths.empty()) << "FTree needs at least one path";
  for (const auto& p : paths) REPTILE_CHECK_EQ(static_cast<int>(p.size()), depth);
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  FTree tree;
  tree.BuildFromSortedPaths(paths, depth);
  return tree;
}

FTree FTree::FromTable(const Table& table, const std::vector<int>& columns,
                       const RowFilter& filter) {
  int depth = static_cast<int>(columns.size());
  REPTILE_CHECK_GT(depth, 0);
  std::vector<const std::vector<int32_t>*> codes;
  codes.reserve(columns.size());
  for (int c : columns) codes.push_back(&table.dim_codes(c));
  // Only the distinct paths are kept, so the sort in FromPaths runs over
  // those and not over every row.
  std::unordered_set<std::vector<int32_t>, CodeTupleHash> distinct;
  std::vector<int32_t> path(columns.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!filter.empty() && !table.Matches(filter, row)) continue;
    for (size_t l = 0; l < codes.size(); ++l) path[l] = (*codes[l])[row];
    distinct.insert(path);
  }
  REPTILE_CHECK(!distinct.empty()) << "no rows match the filter";
  return FromPaths({distinct.begin(), distinct.end()}, depth);
}

FTree FTree::Singleton() {
  FTree tree;
  Level level;
  level.value = {0};
  level.parent = {-1};
  level.first_child = {0};
  level.num_children = {0};
  level.leaf_count = {1};
  tree.levels_.push_back(std::move(level));
  return tree;
}

Result<FTree> FTree::FromLevels(std::vector<Level> levels) {
  auto corrupt = [](const std::string& what) {
    return Status::ParseError("corrupt f-tree: " + what);
  };
  int depth = static_cast<int>(levels.size());
  if (depth < 1) return corrupt("no levels");
  for (int l = 0; l < depth; ++l) {
    if (levels[l].value.empty()) return corrupt("empty level");
    if (levels[l].parent.size() != levels[l].value.size()) {
      return corrupt("value/parent size mismatch");
    }
  }
  // Parents: -1 at the root level; otherwise nondecreasing in-range indices
  // into the previous level (children of one node are contiguous, in tree
  // order). Sibling values strictly increase (LeafIndex binary-searches).
  for (int64_t i = 0; i < levels[0].size(); ++i) {
    if (levels[0].parent[i] != -1) return corrupt("root-level node with a parent");
    if (i > 0 && levels[0].value[i] <= levels[0].value[i - 1]) {
      return corrupt("root-level values not strictly increasing");
    }
  }
  for (int l = 1; l < depth; ++l) {
    const Level& level = levels[l];
    const int64_t parent_count = levels[l - 1].size();
    for (int64_t i = 0; i < level.size(); ++i) {
      if (level.parent[i] < 0 || level.parent[i] >= parent_count) {
        return corrupt("parent index out of range");
      }
      if (i > 0) {
        if (level.parent[i] < level.parent[i - 1]) {
          return corrupt("children not contiguous in tree order");
        }
        if (level.parent[i] == level.parent[i - 1] &&
            level.value[i] <= level.value[i - 1]) {
          return corrupt("sibling values not strictly increasing");
        }
      }
    }
  }
  // Recompute the derived vectors exactly as BuildFromSortedPaths does.
  for (int l = 0; l < depth; ++l) {
    Level& level = levels[l];
    level.first_child.assign(level.size(), 0);
    level.num_children.assign(level.size(), 0);
    if (l + 1 < depth) {
      const Level& child = levels[l + 1];
      for (int64_t c = 0; c < child.size(); ++c) {
        int64_t parent = child.parent[c];
        if (level.num_children[parent] == 0) level.first_child[parent] = c;
        ++level.num_children[parent];
      }
      // Every path runs root to leaf: a childless inner node cannot exist.
      for (int64_t i = 0; i < level.size(); ++i) {
        if (level.num_children[i] == 0) return corrupt("inner node without children");
      }
    }
  }
  levels[depth - 1].leaf_count.assign(levels[depth - 1].size(), 1);
  for (int l = depth - 2; l >= 0; --l) {
    Level& level = levels[l];
    const Level& child = levels[l + 1];
    level.leaf_count.assign(level.size(), 0);
    for (int64_t c = 0; c < child.size(); ++c) {
      level.leaf_count[child.parent[c]] += child.leaf_count[c];
    }
  }
  FTree tree;
  tree.levels_ = std::move(levels);
  return tree;
}

size_t FTree::ApproxBytes() const {
  size_t total = sizeof(FTree);
  for (const Level& level : levels_) {
    total += sizeof(Level);
    total += level.value.capacity() * sizeof(int32_t);
    total += (level.parent.capacity() + level.first_child.capacity() +
              level.num_children.capacity() + level.leaf_count.capacity()) *
             sizeof(int64_t);
  }
  return total;
}

void FTree::BuildFromSortedPaths(const std::vector<std::vector<int32_t>>& paths, int depth) {
  levels_.assign(depth, Level());
  // Append one node per distinct path prefix, in tree (= sorted path) order.
  for (size_t p = 0; p < paths.size(); ++p) {
    int diverge = 0;
    if (p > 0) {
      while (diverge < depth && paths[p][diverge] == paths[p - 1][diverge]) ++diverge;
    } else {
      diverge = 0;
    }
    for (int l = (p == 0 ? 0 : diverge); l < depth; ++l) {
      Level& level = levels_[l];
      level.value.push_back(paths[p][l]);
      level.parent.push_back(l == 0 ? -1 : levels_[l - 1].size() - 1);
    }
  }
  // Child ranges from the parent arrays (children of a node are contiguous).
  for (int l = 0; l < depth; ++l) {
    Level& level = levels_[l];
    level.first_child.assign(level.size(), 0);
    level.num_children.assign(level.size(), 0);
    if (l + 1 < depth) {
      const Level& child = levels_[l + 1];
      for (int64_t c = 0; c < child.size(); ++c) {
        int64_t parent = child.parent[c];
        if (level.num_children[parent] == 0) level.first_child[parent] = c;
        ++level.num_children[parent];
      }
    }
  }
  // Subtree leaf counts, bottom-up. These are the local COUNT aggregates.
  levels_[depth - 1].leaf_count.assign(levels_[depth - 1].size(), 1);
  for (int l = depth - 2; l >= 0; --l) {
    Level& level = levels_[l];
    const Level& child = levels_[l + 1];
    level.leaf_count.assign(level.size(), 0);
    for (int64_t c = 0; c < child.size(); ++c) {
      level.leaf_count[child.parent[c]] += child.leaf_count[c];
    }
  }
}

int64_t FTree::AncestorAt(int level, int64_t node, int target_level) const {
  REPTILE_CHECK_LE(target_level, level);
  while (level > target_level) {
    node = levels_[level].parent[node];
    --level;
  }
  return node;
}

int64_t FTree::LeafIndex(const int32_t* path, int length) const {
  REPTILE_CHECK_EQ(length, depth());
  int64_t begin = 0;
  int64_t end = levels_[0].size();
  int64_t node = -1;
  for (int l = 0; l < depth(); ++l) {
    const Level& level = levels_[l];
    auto first = level.value.begin() + begin;
    auto last = level.value.begin() + end;
    auto it = std::lower_bound(first, last, path[l]);
    if (it == last || *it != path[l]) return -1;
    node = begin + (it - first);
    if (l + 1 < depth()) {
      begin = level.first_child[node];
      end = begin + level.num_children[node];
    }
  }
  return node;
}

int FTree::MatchedPrefixDepth(const int32_t* path, int length) const {
  REPTILE_CHECK_EQ(length, depth());
  int64_t begin = 0;
  int64_t end = levels_[0].size();
  for (int l = 0; l < depth(); ++l) {
    const Level& level = levels_[l];
    auto first = level.value.begin() + begin;
    auto last = level.value.begin() + end;
    auto it = std::lower_bound(first, last, path[l]);
    if (it == last || *it != path[l]) return l;
    int64_t node = begin + (it - first);
    if (l + 1 < depth()) {
      begin = level.first_child[node];
      end = begin + level.num_children[node];
    }
  }
  return depth();
}

std::vector<int32_t> FTree::LeafPath(int64_t leaf) const {
  std::vector<int32_t> path(depth());
  int64_t node = leaf;
  for (int l = depth() - 1; l >= 0; --l) {
    path[l] = levels_[l].value[node];
    node = levels_[l].parent[node];
  }
  return path;
}

FTree::Cursor::Cursor(const FTree* tree, int level) : tree_(tree), level_(level) {
  REPTILE_CHECK(level >= 0 && level < tree->depth());
  path_.assign(level + 1, 0);
}

int FTree::Cursor::Advance() {
  int64_t next = path_[level_] + 1;
  if (next >= tree_->num_nodes(level_)) {
    Reset();
    return -1;
  }
  path_[level_] = next;
  // Repair ancestors: nodes are in tree order, so walking up the parent
  // pointers terminates at the highest level that changed.
  int l = level_;
  int64_t node = next;
  while (l > 0) {
    int64_t parent = tree_->level(l).parent[node];
    if (parent == path_[l - 1]) break;
    path_[l - 1] = parent;
    node = parent;
    --l;
  }
  return l;
}

void FTree::Cursor::Reset() { std::fill(path_.begin(), path_.end(), 0); }

}  // namespace reptile
