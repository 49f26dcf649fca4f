#include "factor/drilldown.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "common/timer.h"
#include "parallel/thread_pool.h"

namespace reptile {

DrillDownState::DrillDownState(const Dataset* dataset, Mode mode,
                               SharedAggregateCache* shared_cache,
                               const AggregateEpochs* epochs)
    : dataset_(dataset), mode_(mode), epochs_(epochs) {
  REPTILE_CHECK(dataset != nullptr);
  if (mode == Mode::kCacheDynamic && shared_cache != nullptr) {
    cache_ = shared_cache;
  } else {
    owned_cache_ = std::make_unique<SharedAggregateCache>();
    cache_ = owned_cache_.get();
  }
  committed_depth_.assign(dataset->num_hierarchies(), 0);
  invocation_build_seconds_.assign(dataset->num_hierarchies(), 0.0);
}

HierarchyAggregates DrillDownState::Build(const Dataset& dataset, int hierarchy, int depth) {
  HierarchyAggregates out;
  std::vector<int> columns = dataset.HierarchyColumns(hierarchy, depth);
  out.tree = std::make_unique<FTree>(FTree::FromTable(dataset.table(), columns));
  out.locals = std::make_unique<LocalAggregates>(out.tree.get());
  return out;
}

int DrillDownState::max_depth(int hierarchy) const {
  return dataset_->hierarchy(hierarchy).depth();
}

bool DrillDownState::CanDrill(int hierarchy) const {
  return committed_depth_[hierarchy] < max_depth(hierarchy);
}

void DrillDownState::BeginInvocation() {
  std::fill(invocation_build_seconds_.begin(), invocation_build_seconds_.end(), 0.0);
  pinned_.clear();
  if (owned_cache_ == nullptr || mode_ == Mode::kCacheDynamic) return;
  // kStatic keeps nothing; kDynamic keeps only committed depths (hierarchy
  // independence lets their global aggregates be reused with O(1) scalar
  // updates), so candidate depths are rebuilt on demand.
  for (const AggregateKey& key : owned_cache_->Keys()) {
    const int hierarchy = std::get<1>(key);
    if (mode_ == Mode::kStatic || std::get<2>(key) != committed_depth_[hierarchy]) {
      owned_cache_->Erase(key);
    }
  }
}

std::map<std::pair<int, int>, double> DrillDownState::Prefetch(
    const std::vector<std::pair<int, int>>& keys, ThreadPool* pool) {
  // Deduplicated keys not yet pinned, in deterministic (sorted) order so
  // task indices are scheduling-independent. A resident key is pinned right
  // here — the pin, not the cache, is what guarantees the key survives
  // until the batch's Peek()s are done.
  std::vector<std::pair<int, int>> absent = keys;
  std::sort(absent.begin(), absent.end());
  absent.erase(std::unique(absent.begin(), absent.end()), absent.end());
  std::erase_if(absent, [&](const std::pair<int, int>& key) {
    REPTILE_CHECK(key.second >= 1 && key.second <= max_depth(key.first));
    if (pinned_.find(key) != pinned_.end()) return true;
    HierarchyAggregatesPtr entry = cache_->Find(CacheKey(key));
    if (entry == nullptr) return false;
    pinned_.emplace(key, std::move(entry));
    return true;
  });

  // Parallel region: one GetOrBuild per absent key; this state's members
  // are not touched.
  struct Fetched {
    HierarchyAggregatesPtr entry;
    bool built = false;
    double seconds = 0.0;
  };
  std::vector<Fetched> fetched =
      ParallelMap<Fetched>(pool, static_cast<int64_t>(absent.size()), [&](int64_t i) {
        const std::pair<int, int> key = absent[static_cast<size_t>(i)];
        Fetched out;
        std::tie(out.entry, out.built) = cache_->GetOrBuild(CacheKey(key), [&] {
          Timer timer;
          HierarchyAggregates aggregates = Build(*dataset_, key.first, key.second);
          out.seconds = timer.Seconds();
          return aggregates;
        });
        return out;
      });

  // Sequential epilogue: pinning and the Figure 9 accounting.
  std::map<std::pair<int, int>, double> build_seconds;
  for (size_t i = 0; i < absent.size(); ++i) {
    pinned_.emplace(absent[i], std::move(fetched[i].entry));
    if (!fetched[i].built) continue;
    invocation_build_seconds_[absent[i].first] += fetched[i].seconds;
    ++total_builds_;
    build_seconds[absent[i]] = fetched[i].seconds;
  }
  return build_seconds;
}

const HierarchyAggregates& DrillDownState::Peek(int hierarchy, int depth) const {
  auto it = pinned_.find(std::make_pair(hierarchy, depth));
  REPTILE_CHECK(it != pinned_.end())
      << "drill-down aggregates (" << hierarchy << ", " << depth
      << ") read before being prefetched";
  return *it->second;
}

void DrillDownState::Commit(int hierarchy) {
  REPTILE_CHECK(CanDrill(hierarchy)) << "hierarchy " << hierarchy << " fully drilled";
  ++committed_depth_[hierarchy];
}

double DrillDownState::InvocationBuildSeconds(int hierarchy) const {
  return invocation_build_seconds_[hierarchy];
}

void DrillDownState::ResetStats() { total_builds_ = 0; }

}  // namespace reptile
