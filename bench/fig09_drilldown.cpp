// Figure 9 (Section 5.1.3): drill-down optimization. Two hierarchies
// A = [A1..A6] and B = [B1..B6]; hierarchy A is already drilled to A3 and B
// to n = 3, 4, 5 attributes. Reptile is invoked three times, drilling A each
// time, and we measure the per-hierarchy cost of computing decomposed
// aggregates under the three policies:
//
//   Static         — recompute everything touched, every invocation.
//   Dynamic        — keep committed-depth aggregates (hierarchy
//                    independence); recompute candidate depths.
//   Cache+Dynamic  — additionally reuse candidate-depth aggregates computed
//                    in earlier invocations (2ndB/3rdB become free).
//
// Paper shape: Dynamic > 1.2x faster than Static; caching eliminates the
// 2ndB and 3rdB areas entirely.

#include <cstdio>
#include <string>

#include "common/env.h"
#include "datagen/synthetic.h"
#include "factor/drilldown.h"

namespace reptile {
namespace {

struct InvocationCosts {
  double a_seconds = 0.0;
  double b_seconds = 0.0;
};

// Runs the three invocations for one policy and one pre-drilled B depth.
std::vector<InvocationCosts> Run(const Dataset& dataset, DrillDownState::Mode mode,
                                 int b_depth) {
  DrillDownState state(&dataset, mode);
  // Pre-committed session state: A drilled to A3, B to B<n>.
  for (int i = 0; i < 3; ++i) state.Commit(0);
  for (int i = 0; i < b_depth; ++i) state.Commit(1);

  std::vector<InvocationCosts> costs;
  for (int invocation = 0; invocation < 3; ++invocation) {
    state.BeginInvocation();
    // A Reptile invocation evaluates both hierarchies as candidates: each
    // needs its own aggregates one level deeper plus the other's at the
    // committed depth. Built inline, so the areas are single-thread costs.
    state.Prefetch({{0, state.depth(0) + 1},   // candidate A
                    {0, state.depth(0)},       // A at committed depth (for candidate B)
                    {1, state.depth(1) + 1},   // candidate B
                    {1, state.depth(1)}},      // B at committed depth (for candidate A)
                   nullptr);
    costs.push_back(
        InvocationCosts{state.InvocationBuildSeconds(0), state.InvocationBuildSeconds(1)});
    state.Commit(0);  // the user picks A every time
  }
  return costs;
}

const char* ModeName(DrillDownState::Mode mode) {
  switch (mode) {
    case DrillDownState::Mode::kStatic:
      return "Static";
    case DrillDownState::Mode::kDynamic:
      return "Dynamic";
    case DrillDownState::Mode::kCacheDynamic:
      return "Cache+Dynamic";
  }
  return "?";
}

}  // namespace
}  // namespace reptile

int main() {
  using reptile::DrillDownState;
  reptile::SyntheticOptions options;
  options.num_hierarchies = 2;
  options.attrs_per_hierarchy = 6;
  options.cardinality = reptile::EnvInt("REPTILE_FIG9_W", 20000);
  int64_t rows = reptile::EnvInt("REPTILE_FIG9_ROWS", 200000);
  reptile::Dataset dataset = reptile::MakeChainDataset(options, rows);

  std::printf("Figure 9: drill-down optimization (2 hierarchies x 6 attrs, w=%lld, %lld rows)\n",
              static_cast<long long>(options.cardinality), static_cast<long long>(rows));
  std::printf("Per-invocation decomposed-aggregate build seconds while drilling A three times.\n\n");
  std::printf("%-14s %-9s %12s %12s %12s %12s %12s\n", "mode", "B depth", "1stA+2+3", "1stB",
              "2ndB", "3rdB", "total");
  for (int b_depth : {3, 4, 5}) {
    for (DrillDownState::Mode mode :
         {DrillDownState::Mode::kStatic, DrillDownState::Mode::kDynamic,
          DrillDownState::Mode::kCacheDynamic}) {
      std::vector<reptile::InvocationCosts> costs = reptile::Run(dataset, mode, b_depth);
      double a_total = costs[0].a_seconds + costs[1].a_seconds + costs[2].a_seconds;
      double total = a_total;
      for (const auto& c : costs) total += c.b_seconds;
      std::printf("%-14s %-9d %12.4f %12.4f %12.4f %12.4f %12.4f\n", reptile::ModeName(mode),
                  b_depth, a_total, costs[0].b_seconds, costs[1].b_seconds, costs[2].b_seconds,
                  total);
    }
  }
  std::printf("\nExpected shape (paper): Dynamic > 1.2x faster than Static overall; with\n"
              "caching the 2ndB and 3rdB areas vanish (their aggregates were computed and\n"
              "cached in the first invocation).\n");
  return 0;
}
