#include "factor/agg_cache.h"

namespace reptile {

AggregateEpochs MakeUniformEpochs(const std::vector<int>& max_depths, int64_t epoch) {
  AggregateEpochs epochs;
  epochs.dirtied.reserve(max_depths.size());
  for (int depth : max_depths) {
    epochs.dirtied.emplace_back(static_cast<size_t>(depth), epoch);
  }
  return epochs;
}

size_t ApproxHierarchyAggregatesBytes(const AggregateKey& /*key*/,
                                      const HierarchyAggregates& aggregates) {
  size_t total = sizeof(HierarchyAggregates) + 64;  // map/list node overhead
  if (aggregates.tree != nullptr) total += aggregates.tree->ApproxBytes();
  if (aggregates.locals != nullptr) total += aggregates.locals->ApproxBytes();
  return total;
}

}  // namespace reptile
