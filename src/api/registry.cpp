#include "api/registry.h"

#include <mutex>
#include <utility>

#include "factor/agg_cache.h"
#include "factor/group_stats_cache.h"
#include "factor/model_cache.h"
#include "version/version.h"

namespace reptile {
namespace {

std::shared_ptr<const AggregateEpochs> UniformEpochsFor(const Dataset& dataset,
                                                        int64_t epoch) {
  std::vector<int> depths;
  depths.reserve(static_cast<size_t>(dataset.num_hierarchies()));
  for (int h = 0; h < dataset.num_hierarchies(); ++h) {
    depths.push_back(dataset.hierarchy(h).depth());
  }
  return std::make_shared<const AggregateEpochs>(MakeUniformEpochs(depths, epoch));
}

Status ValidatePreparable(const Dataset& dataset) {
  if (dataset.num_hierarchies() == 0) {
    return Status::InvalidArgument("a session needs at least one hierarchy to drill into");
  }
  if (dataset.table().num_rows() == 0) {
    return Status::InvalidArgument("the session dataset has no rows");
  }
  return Status::Ok();
}

}  // namespace

PreparedDataset::PreparedDataset(Dataset dataset)
    : dataset_(std::move(dataset)),
      cache_(std::make_shared<SharedAggregateCache>()),
      model_cache_(std::make_shared<SharedFittedModelCache>()),
      group_stats_cache_(std::make_unique<GroupStatsCache>()),
      version_(1),
      epochs_(UniformEpochsFor(dataset_, 1)) {}

PreparedDataset::PreparedDataset(Dataset dataset, const PreparedDataset& parent,
                                 int64_t version, AggregateEpochs epochs)
    : dataset_(std::move(dataset)),
      cache_(parent.cache_),
      model_cache_(parent.model_cache_),
      group_stats_cache_(std::make_unique<GroupStatsCache>()),
      version_(version),
      epochs_(std::make_shared<const AggregateEpochs>(std::move(epochs))) {}

PreparedDataset::~PreparedDataset() {
  const std::string token = version_token();
  for (const std::string& key : model_cache_->Keys()) {
    if (VersionlessModelKeyLength(key, token).has_value()) model_cache_->Erase(key);
  }
}

Result<DatasetHandle> PreparedDataset::Prepare(Dataset dataset) {
  REPTILE_RETURN_IF_ERROR(ValidatePreparable(dataset));
  // make_shared needs a public constructor; the struct-inheritance detour
  // keeps the constructor private without a custom allocator dance.
  struct Access : PreparedDataset {
    explicit Access(Dataset d) : PreparedDataset(std::move(d)) {}
  };
  return DatasetHandle(std::make_shared<const Access>(std::move(dataset)));
}

Result<DatasetHandle> PreparedDataset::PrepareVersion(const DatasetHandle& parent,
                                                      Dataset dataset, int64_t version,
                                                      AggregateEpochs epochs) {
  if (parent == nullptr) {
    return Status::InvalidArgument("a dataset version needs a parent to share caches with");
  }
  if (version != parent->version() + 1) {
    return Status::FailedPrecondition(
        "dataset version " + std::to_string(version) + " does not succeed parent version " +
        std::to_string(parent->version()));
  }
  REPTILE_RETURN_IF_ERROR(ValidatePreparable(dataset));
  if (epochs.dirtied.size() != static_cast<size_t>(dataset.num_hierarchies())) {
    return Status::Internal("dirty-epoch table does not cover every hierarchy");
  }
  struct Access : PreparedDataset {
    Access(Dataset d, const PreparedDataset& p, int64_t v, AggregateEpochs e)
        : PreparedDataset(std::move(d), p, v, std::move(e)) {}
  };
  return DatasetHandle(
      std::make_shared<const Access>(std::move(dataset), *parent, version, std::move(epochs)));
}

const AggregateEpochs& PreparedDataset::epochs() const { return *epochs_; }

std::string PreparedDataset::version_token() const {
  return version_ == 1 ? std::string() : std::to_string(version_);
}

int64_t PreparedDataset::cache_entries() const { return cache_->entries(); }
int64_t PreparedDataset::cache_hits() const { return cache_->hits(); }
int64_t PreparedDataset::cache_misses() const { return cache_->misses(); }
int64_t PreparedDataset::cache_bytes() const {
  return static_cast<int64_t>(cache_->bytes());
}
int64_t PreparedDataset::cache_evictions() const { return cache_->evictions(); }
int64_t PreparedDataset::model_cache_entries() const { return model_cache_->entries(); }
int64_t PreparedDataset::model_cache_hits() const { return model_cache_->hits(); }
int64_t PreparedDataset::model_cache_misses() const { return model_cache_->misses(); }
int64_t PreparedDataset::model_cache_bytes() const {
  return static_cast<int64_t>(model_cache_->bytes());
}
int64_t PreparedDataset::model_cache_evictions() const { return model_cache_->evictions(); }
int64_t PreparedDataset::model_cache_fits() const {
  return model_cache_->misses();  // a miss is one fit
}
int64_t PreparedDataset::group_stats_cache_entries() const {
  return group_stats_cache_->entries();
}
int64_t PreparedDataset::group_stats_cache_hits() const { return group_stats_cache_->hits(); }
int64_t PreparedDataset::group_stats_cache_misses() const {
  return group_stats_cache_->misses();
}
int64_t PreparedDataset::group_stats_cache_bytes() const {
  return static_cast<int64_t>(group_stats_cache_->bytes());
}
int64_t PreparedDataset::group_stats_cache_evictions() const {
  return group_stats_cache_->evictions();
}

void PreparedDataset::SetCacheBudgetBytes(size_t total_bytes) const {
  const size_t third = total_bytes / 3;
  cache_->set_budget_bytes(third);
  model_cache_->set_budget_bytes(third);
  group_stats_cache_->set_budget_bytes(total_bytes - 2 * third);
}

Result<DatasetHandle> DatasetRegistry::Add(std::string name, Dataset dataset) {
  Result<DatasetHandle> prepared = PreparedDataset::Prepare(std::move(dataset));
  if (!prepared.ok()) return prepared.status();
  return AddPrepared(std::move(name), std::move(prepared).value());
}

Result<DatasetHandle> DatasetRegistry::AddPrepared(std::string name, DatasetHandle dataset) {
  if (name.empty()) return Status::InvalidArgument("dataset name must be non-empty");
  if (dataset == nullptr) return Status::InvalidArgument("dataset handle must be non-null");
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = chains_.emplace(std::move(name), Chain());
  if (!inserted) {
    return Status::InvalidArgument("dataset '" + it->first + "' is already registered");
  }
  it->second.head = dataset->version();
  return it->second.versions.emplace(dataset->version(), std::move(dataset)).first->second;
}

Result<DatasetHandle> DatasetRegistry::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = chains_.find(name);
  if (it != chains_.end()) {
    return it->second.versions.at(it->second.head);
  }
  std::string base;
  int64_t version = 0;
  if (ParseVersionedName(name, &base, &version)) {
    it = chains_.find(base);
    if (it != chains_.end()) {
      auto vit = it->second.versions.find(version);
      if (vit != it->second.versions.end()) return vit->second;
      return Status::NotFound("dataset '" + base + "' has no live version v" +
                              std::to_string(version) +
                              " (it may have been garbage-collected)");
    }
  }
  return Status::NotFound("no dataset named '" + name + "' is loaded on this server");
}

Result<int64_t> DatasetRegistry::AppendVersion(const std::string& name, DatasetHandle child,
                                               int64_t invalidated_entries) {
  if (child == nullptr) return Status::InvalidArgument("dataset handle must be non-null");
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = chains_.find(name);
  if (it == chains_.end()) {
    return Status::NotFound("no dataset named '" + name + "' is loaded on this server");
  }
  Chain& chain = it->second;
  if (child->version() != chain.head + 1) {
    return Status::FailedPrecondition(
        "dataset '" + name + "' is at version " + std::to_string(chain.head) +
        ", not " + std::to_string(child->version() - 1) +
        " (a concurrent append committed first)");
  }
  chain.versions.emplace(child->version(), std::move(child));
  chain.head = it->second.versions.rbegin()->first;
  int64_t retired = GcChainLocked(chain);
  cache_invalidations_.fetch_add(invalidated_entries, std::memory_order_relaxed);
  return retired;
}

int64_t DatasetRegistry::GcChainLocked(Chain& chain) {
  // GC: a non-head version whose only reference is this chain (use_count 1
  // — new references are only handed out under mu_) has no session pinned
  // to it and can never be opened again cheaper than the head, so retire it.
  int64_t retired = 0;
  for (auto vit = chain.versions.begin(); vit != chain.versions.end();) {
    if (vit->first != chain.head && vit->second.use_count() == 1) {
      vit = chain.versions.erase(vit);
      ++retired;
    } else {
      ++vit;
    }
  }
  versions_gc_.fetch_add(retired, std::memory_order_relaxed);
  return retired;
}

Result<int64_t> DatasetRegistry::CollectGarbage(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = chains_.find(name);
  if (it == chains_.end()) {
    return Status::NotFound("no dataset named '" + name + "' is loaded on this server");
  }
  return GcChainLocked(it->second);
}

Status DatasetRegistry::Remove(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (chains_.erase(name) == 0) {
    return Status::NotFound("no dataset named '" + name + "' is loaded on this server");
  }
  return Status::Ok();
}

bool DatasetRegistry::Contains(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return chains_.find(name) != chains_.end();
}

std::vector<std::string> DatasetRegistry::names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(chains_.size());
  for (const auto& [name, chain] : chains_) out.push_back(name);
  return out;
}

std::vector<DatasetVersionSummary> DatasetRegistry::VersionSummaries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DatasetVersionSummary> out;
  out.reserve(chains_.size());
  for (const auto& [name, chain] : chains_) {
    DatasetVersionSummary summary;
    summary.name = name;
    summary.head = chain.head;
    summary.live.reserve(chain.versions.size());
    for (const auto& [version, handle] : chain.versions) summary.live.push_back(version);
    out.push_back(std::move(summary));
  }
  return out;
}

int64_t DatasetRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int64_t>(chains_.size());
}

}  // namespace reptile
