// Tests for factor/drilldown: the three caching policies and the correctness
// of the trees/aggregates they pin (read through Prefetch + Peek).

#include <utility>
#include <vector>

#include "data/dataset.h"
#include "factor/drilldown.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

Dataset MakeDataset() {
  Table t;
  int a1 = t.AddDimensionColumn("a1");
  int a2 = t.AddDimensionColumn("a2");
  int b1 = t.AddDimensionColumn("b1");
  int m = t.AddMeasureColumn("m");
  auto add = [&](const std::string& x1, const std::string& x2, const std::string& y1) {
    t.SetDim(a1, x1);
    t.SetDim(a2, x2);
    t.SetDim(b1, y1);
    t.SetMeasure(m, 1.0);
    t.CommitRow();
  };
  add("p", "u", "x");
  add("p", "v", "x");
  add("q", "w", "y");
  add("q", "w", "z");
  return Dataset(std::move(t), {{"A", {"a1", "a2"}}, {"B", {"b1"}}});
}

TEST(DrillDownState, DepthBookkeeping) {
  Dataset ds = MakeDataset();
  DrillDownState state(&ds, DrillDownState::Mode::kCacheDynamic);
  EXPECT_EQ(state.depth(0), 0);
  EXPECT_TRUE(state.CanDrill(0));
  EXPECT_EQ(state.max_depth(0), 2);
  state.Commit(0);
  EXPECT_EQ(state.depth(0), 1);
  state.Commit(0);
  EXPECT_FALSE(state.CanDrill(0));
}

TEST(DrillDownState, BuildsCorrectTrees) {
  Dataset ds = MakeDataset();
  DrillDownState state(&ds, DrillDownState::Mode::kCacheDynamic);
  state.Prefetch({{0, 2}, {1, 1}}, nullptr);
  const HierarchyAggregates& a2 = state.Peek(0, 2);
  EXPECT_EQ(a2.tree->depth(), 2);
  EXPECT_EQ(a2.tree->num_leaves(), 3);  // (p,u), (p,v), (q,w)
  EXPECT_EQ(a2.locals->total(), 3);
  const HierarchyAggregates& b1 = state.Peek(1, 1);
  EXPECT_EQ(b1.tree->num_leaves(), 3);  // x, y, z
}

TEST(DrillDownState, CacheDynamicReusesEverything) {
  Dataset ds = MakeDataset();
  DrillDownState state(&ds, DrillDownState::Mode::kCacheDynamic);
  state.BeginInvocation();
  state.Prefetch({{0, 1}, {1, 1}}, nullptr);
  EXPECT_EQ(state.total_builds(), 2);
  const HierarchyAggregates* first = &state.Peek(0, 1);
  state.BeginInvocation();
  state.Prefetch({{0, 1}, {1, 1}}, nullptr);
  EXPECT_EQ(state.total_builds(), 2);  // all cached
  EXPECT_EQ(&state.Peek(0, 1), first);  // the very same entry
}

TEST(DrillDownState, StaticRebuildsEachInvocation) {
  Dataset ds = MakeDataset();
  DrillDownState state(&ds, DrillDownState::Mode::kStatic);
  state.BeginInvocation();
  state.Prefetch({{0, 1}, {1, 1}}, nullptr);
  EXPECT_EQ(state.total_builds(), 2);
  state.BeginInvocation();
  state.Prefetch({{0, 1}, {1, 1}}, nullptr);
  EXPECT_EQ(state.total_builds(), 4);  // rebuilt
}

TEST(DrillDownState, DynamicKeepsOnlyCommittedDepths) {
  Dataset ds = MakeDataset();
  DrillDownState state(&ds, DrillDownState::Mode::kDynamic);
  state.Commit(0);  // committed depth of A = 1
  // (0, 1) is the committed depth: kept across invocations. (0, 2) and
  // (1, 1) are candidate depths (B's committed depth is 0): evicted.
  const std::vector<std::pair<int, int>> keys = {{0, 1}, {0, 2}, {1, 1}};
  state.BeginInvocation();
  state.Prefetch(keys, nullptr);
  EXPECT_EQ(state.total_builds(), 3);
  const HierarchyAggregates* committed = &state.Peek(0, 1);
  state.BeginInvocation();
  state.Prefetch(keys, nullptr);
  // Only the two candidate depths are rebuilt.
  EXPECT_EQ(state.total_builds(), 5);
  EXPECT_EQ(&state.Peek(0, 1), committed);  // kept, not rebuilt
}

TEST(DrillDownState, InvocationBuildSecondsTracked) {
  Dataset ds = MakeDataset();
  DrillDownState state(&ds, DrillDownState::Mode::kStatic);
  state.BeginInvocation();
  EXPECT_DOUBLE_EQ(state.InvocationBuildSeconds(1), 0.0);
  state.Prefetch({{1, 1}}, nullptr);
  EXPECT_GE(state.InvocationBuildSeconds(1), 0.0);
  EXPECT_DOUBLE_EQ(state.InvocationBuildSeconds(0), 0.0);
}

}  // namespace
}  // namespace reptile
