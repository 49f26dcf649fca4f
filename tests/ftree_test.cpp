// Tests for factor/ftree: construction, leaf counts (local COUNT aggregates),
// ancestor lookups, leaf indexing, and cursor traversal.

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/table.h"
#include "factor/ftree.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

// The running-example geography hierarchy of Figure 3: districts d0, d1 with
// villages {v0, v1} under d0 and {v2} under d1.
FTree MakeGeoTree() {
  return FTree::FromPaths({{0, 0}, {0, 1}, {1, 2}}, 2);
}

TEST(FTree, BasicShape) {
  FTree tree = MakeGeoTree();
  EXPECT_EQ(tree.depth(), 2);
  EXPECT_EQ(tree.num_nodes(0), 2);
  EXPECT_EQ(tree.num_nodes(1), 3);
  EXPECT_EQ(tree.num_leaves(), 3);
}

TEST(FTree, LeafCountsAreLocalCounts) {
  FTree tree = MakeGeoTree();
  EXPECT_EQ(tree.level(0).leaf_count[0], 2);  // d0 has 2 villages
  EXPECT_EQ(tree.level(0).leaf_count[1], 1);  // d1 has 1 village
  EXPECT_EQ(tree.level(1).leaf_count[0], 1);
}

TEST(FTree, ParentsAndChildren) {
  FTree tree = MakeGeoTree();
  EXPECT_EQ(tree.level(1).parent[0], 0);
  EXPECT_EQ(tree.level(1).parent[2], 1);
  EXPECT_EQ(tree.level(0).first_child[0], 0);
  EXPECT_EQ(tree.level(0).num_children[0], 2);
  EXPECT_EQ(tree.level(0).first_child[1], 2);
  EXPECT_EQ(tree.level(0).num_children[1], 1);
}

TEST(FTree, DeduplicatesPaths) {
  FTree tree = FTree::FromPaths({{0, 0}, {0, 0}, {0, 1}}, 2);
  EXPECT_EQ(tree.num_leaves(), 2);
}

TEST(FTree, DirtyFunctionalDependency) {
  // Value 5 appears under two districts: node identity is the path, so the
  // tree keeps both and the leaf counts stay consistent.
  FTree tree = FTree::FromPaths({{0, 5}, {1, 5}}, 2);
  EXPECT_EQ(tree.num_nodes(1), 2);
  EXPECT_EQ(tree.level(0).leaf_count[0], 1);
  EXPECT_EQ(tree.level(0).leaf_count[1], 1);
}

TEST(FTree, AncestorAt) {
  FTree tree = FTree::FromPaths({{0, 0, 0}, {0, 0, 1}, {0, 1, 2}, {1, 2, 3}}, 3);
  EXPECT_EQ(tree.AncestorAt(2, 0, 0), 0);
  EXPECT_EQ(tree.AncestorAt(2, 3, 0), 1);
  EXPECT_EQ(tree.AncestorAt(2, 2, 1), 1);
  EXPECT_EQ(tree.AncestorAt(1, 1, 1), 1);  // self
}

TEST(FTree, LeafIndexAndPathRoundTrip) {
  FTree tree = FTree::FromPaths({{0, 0, 0}, {0, 0, 1}, {0, 1, 2}, {1, 2, 3}}, 3);
  for (int64_t leaf = 0; leaf < tree.num_leaves(); ++leaf) {
    std::vector<int32_t> path = tree.LeafPath(leaf);
    EXPECT_EQ(tree.LeafIndex(path.data(), 3), leaf);
  }
  std::vector<int32_t> missing = {0, 1, 99};
  EXPECT_EQ(tree.LeafIndex(missing.data(), 3), -1);
  std::vector<int32_t> missing_root = {9, 0, 0};
  EXPECT_EQ(tree.LeafIndex(missing_root.data(), 3), -1);
}

TEST(FTree, Singleton) {
  FTree tree = FTree::Singleton();
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_EQ(tree.num_leaves(), 1);
  EXPECT_EQ(tree.level(0).leaf_count[0], 1);
}

TEST(FTree, FromTable) {
  Table t;
  int d = t.AddDimensionColumn("d");
  int v = t.AddDimensionColumn("v");
  int m = t.AddMeasureColumn("m");
  auto add = [&](const std::string& dv, const std::string& vv) {
    t.SetDim(d, dv);
    t.SetDim(v, vv);
    t.SetMeasure(m, 0.0);
    t.CommitRow();
  };
  add("d0", "v0");
  add("d0", "v0");  // duplicate row, one leaf
  add("d0", "v1");
  add("d1", "v2");
  FTree tree = FTree::FromTable(t, {d, v});
  EXPECT_EQ(tree.num_leaves(), 3);
  EXPECT_EQ(tree.level(0).leaf_count[0], 2);

  RowFilter filter;
  filter.Add(d, *t.dict(d).Find("d1"));
  FTree filtered = FTree::FromTable(t, {d, v}, filter);
  EXPECT_EQ(filtered.num_leaves(), 1);
}

// FromTable keeps only the distinct paths of the matching rows; the tree must
// equal FromPaths over every matching row's path.
TEST(FTree, FromTableMatchesFromPaths) {
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    // Every fifth seed pads the dictionaries with values no row uses, then
    // adds rows on the largest codes.
    const bool pad = seed % 5 == 0;
    const int depth = pad ? 4 : static_cast<int>(rng.UniformInt(1, 4));
    Table t;
    std::vector<int> columns;
    for (int l = 0; l < depth; ++l) {
      columns.push_back(t.AddDimensionColumn("a" + std::to_string(l)));
    }
    const int other = t.AddDimensionColumn("other");
    const int m = t.AddMeasureColumn("m");
    if (pad) {
      for (int c : columns) {
        for (int32_t k = 0; k < 1000; ++k) t.mutable_dict(c).GetOrAdd("pad" + std::to_string(k));
      }
    }
    std::vector<int64_t> cardinality;
    for (int l = 0; l < depth; ++l) cardinality.push_back(rng.UniformInt(1, 6));
    const int64_t rows = rng.UniformInt(1, 200);
    for (int64_t r = 0; r < rows; ++r) {
      // Each level draws independently of its parent, so one value recurs
      // under several parents: dirty functional dependencies.
      for (int l = 0; l < depth; ++l) {
        t.SetDim(columns[l], "v" + std::to_string(rng.UniformInt(0, cardinality[l] - 1)));
      }
      t.SetDim(other, "o" + std::to_string(rng.UniformInt(0, 2)));
      t.SetMeasure(m, 0.0);
      t.CommitRow();
      if (rng.Bernoulli(0.3)) {  // an exact duplicate row
        for (int c : columns) t.SetDimCode(c, t.dim_codes(c).back());
        t.SetDimCode(other, t.dim_codes(other).back());
        t.SetMeasure(m, 1.0);
        t.CommitRow();
      }
    }
    if (pad) {  // rows on the largest codes
      for (int k = 0; k < 3; ++k) {
        for (int c : columns) t.SetDimCode(c, t.dict(c).size() - 1 - k);
        t.SetDimCode(other, 0);
        t.SetMeasure(m, 0.0);
        t.CommitRow();
      }
    }

    std::vector<RowFilter> filters(1);
    for (int f = 0; f < 2; ++f) {
      const size_t row = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(t.num_rows()) - 1));
      const int column = f == 0 ? other : columns[static_cast<size_t>(
                                              rng.UniformInt(0, depth - 1))];
      RowFilter filter;
      filter.Add(column, t.dim_codes(column)[row]);
      filters.push_back(filter);
    }
    for (size_t f = 0; f < filters.size(); ++f) {
      std::vector<std::vector<int32_t>> paths;
      for (size_t row = 0; row < t.num_rows(); ++row) {
        if (!t.Matches(filters[f], row)) continue;
        std::vector<int32_t> path;
        for (int c : columns) path.push_back(t.dim_codes(c)[row]);
        paths.push_back(path);
      }
      const FTree expected = FTree::FromPaths(paths, depth);
      const FTree actual = FTree::FromTable(t, columns, filters[f]);
      ASSERT_EQ(actual.depth(), expected.depth());
      for (int l = 0; l < depth; ++l) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " filter " + std::to_string(f) +
                     " level " + std::to_string(l));
        EXPECT_EQ(actual.level(l).value, expected.level(l).value);
        EXPECT_EQ(actual.level(l).parent, expected.level(l).parent);
        EXPECT_EQ(actual.level(l).first_child, expected.level(l).first_child);
        EXPECT_EQ(actual.level(l).num_children, expected.level(l).num_children);
        EXPECT_EQ(actual.level(l).leaf_count, expected.level(l).leaf_count);
      }
    }
  }
}

TEST(FTreeCursor, VisitsAllNodesInOrder) {
  FTree tree = FTree::FromPaths({{0, 0, 0}, {0, 0, 1}, {0, 1, 2}, {1, 2, 3}}, 3);
  FTree::Cursor cursor(&tree, 2);
  std::vector<int64_t> visited;
  visited.push_back(cursor.position());
  while (true) {
    int top = cursor.Advance();
    if (top < 0) break;
    visited.push_back(cursor.position());
    // Invariant: the tracked path is consistent with the parent pointers.
    for (int l = 2; l > 0; --l) {
      EXPECT_EQ(tree.level(l).parent[cursor.node(l)], cursor.node(l - 1));
    }
  }
  EXPECT_EQ(visited, (std::vector<int64_t>{0, 1, 2, 3}));
  // After wrap the cursor is back at the start.
  EXPECT_EQ(cursor.position(), 0);
}

TEST(FTreeCursor, ReportsTopChangedLevel) {
  FTree tree = FTree::FromPaths({{0, 0, 0}, {0, 0, 1}, {0, 1, 2}, {1, 2, 3}}, 3);
  FTree::Cursor cursor(&tree, 2);
  EXPECT_EQ(cursor.Advance(), 2);  // leaf 0 -> 1: only village changes
  EXPECT_EQ(cursor.Advance(), 1);  // leaf 1 -> 2: district level changes
  EXPECT_EQ(cursor.Advance(), 0);  // leaf 2 -> 3: region level changes
  EXPECT_EQ(cursor.Advance(), -1);
}

// Property: for random trees, leaf counts at every level sum to the total
// number of leaves, and LeafIndex inverts LeafPath.
class FTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(FTreeRandomTest, Invariants) {
  Rng rng(GetParam());
  int depth = static_cast<int>(rng.UniformInt(1, 4));
  int num_paths = static_cast<int>(rng.UniformInt(1, 60));
  std::vector<std::vector<int32_t>> paths;
  for (int p = 0; p < num_paths; ++p) {
    std::vector<int32_t> path(depth);
    for (int l = 0; l < depth; ++l) path[l] = static_cast<int32_t>(rng.UniformInt(0, 5));
    paths.push_back(path);
  }
  FTree tree = FTree::FromPaths(paths, depth);
  for (int l = 0; l < depth; ++l) {
    int64_t total = 0;
    for (int64_t node = 0; node < tree.num_nodes(l); ++node) {
      total += tree.level(l).leaf_count[node];
    }
    EXPECT_EQ(total, tree.num_leaves()) << "level " << l;
  }
  for (int64_t leaf = 0; leaf < tree.num_leaves(); ++leaf) {
    std::vector<int32_t> path = tree.LeafPath(leaf);
    EXPECT_EQ(tree.LeafIndex(path.data(), depth), leaf);
  }
  // Children of every node are contiguous and in tree order.
  for (int l = 0; l + 1 < depth; ++l) {
    for (int64_t node = 0; node < tree.num_nodes(l); ++node) {
      int64_t first = tree.level(l).first_child[node];
      int64_t count = tree.level(l).num_children[node];
      EXPECT_GT(count, 0);
      for (int64_t c = first; c < first + count; ++c) {
        EXPECT_EQ(tree.level(l + 1).parent[c], node);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FTreeRandomTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace reptile
