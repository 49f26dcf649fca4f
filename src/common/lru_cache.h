// Byte-accounted, single-flight LRU cache with shared_ptr-based safe
// reclamation — the one get-or-build every cached build in the engine goes
// through: both process-shared caches (factor/agg_cache.h,
// factor/model_cache.h) are this template, and so is the per-session cache
// of the evicting drill-down policies (factor/drilldown.h).
//
// Contract:
//  * GetOrBuild(key, build) is the one get-or-build. A resident key is a
//    lookup and counts a hit. On a miss exactly one caller runs build()
//    OUTSIDE the lock — a slow build never blocks lookups of other keys —
//    publishes the value and counts the miss; concurrent callers for the
//    key wait for that build and count a hit (they built nothing). A build
//    that throws releases the key, so a later call retries; the callers
//    waiting on it rethrow the exception and count nothing.
//  * Values are held as shared_ptr<const Value>. Eviction drops only the
//    cache's reference: a caller still holding the pointer keeps using the
//    entry safely for as long as it likes ("in-flight holders survive
//    eviction"). Callers must hold owning handles across any window where
//    eviction could run.
//  * Insert() is insert-once: the first value to land for a key wins and
//    every later Insert or build of it receives (and should adopt) the
//    resident value, so deterministic builds stay canonical per key.
//  * budget_bytes() is a hard ceiling on the bytes the cache itself retains
//    (0 = unlimited). Inserting past it evicts least-recently-used entries
//    until the accounted bytes fit — including, when a single entry exceeds
//    the whole budget, the entry just inserted (the caller's shared_ptr
//    still owns it; the cache just refuses to retain it). Builds in flight
//    are not accounted until they publish.
//  * Byte sizes are estimates: kApproxBytes(key, value) for built entries,
//    caller-supplied for Insert. They only need to be consistent, not exact.
//  * Every method is thread-safe behind one mutex. Find() touches recency,
//    so there is no shared/exclusive split — lookups are cheap map walks.
//  * hits/misses/evictions are monotonic (misses == builds run);
//    entries/bytes are gauges over resident entries.

#ifndef REPTILE_COMMON_LRU_CACHE_H_
#define REPTILE_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace reptile {

template <typename Key, typename Value, size_t (*kApproxBytes)(const Key&, const Value&)>
class LruByteCache {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  LruByteCache() = default;

  LruByteCache(const LruByteCache&) = delete;
  LruByteCache& operator=(const LruByteCache&) = delete;

  /// The value for `key`, running `build()` (which returns a Value) when it
  /// is neither resident nor being built — see the file comment. The bool is
  /// true iff THIS call ran the build; callers use it to attribute build
  /// time and their own build counters.
  template <typename Build>
  std::pair<ValuePtr, bool> GetOrBuild(const Key& key, const Build& build) {
    std::optional<std::promise<ValuePtr>> promise;  // engaged iff this call builds
    std::shared_future<ValuePtr> pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (ValuePtr value = TouchLocked(key)) {
        ++hits_;
        return {std::move(value), false};
      }
      auto [it, inserted] = inflight_.try_emplace(key);
      if (inserted) {
        it->second = promise.emplace().get_future().share();
        ++misses_;
      } else {
        pending = it->second;
      }
    }
    if (pending.valid()) {
      ValuePtr value = pending.get();  // blocks on the build; rethrows its failure
      std::lock_guard<std::mutex> lock(mu_);
      ++hits_;
      return {std::move(value), false};
    }

    ValuePtr value;
    try {
      value = std::make_shared<const Value>(build());
    } catch (...) {
      // Release the key BEFORE publishing the failure: new arrivals retry
      // fresh, only the callers already waiting on this build observe it.
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
      }
      promise->set_exception(std::current_exception());
      throw;
    }
    const size_t bytes = kApproxBytes(key, *value);
    {
      // Publication is atomic with lookups: no caller sees the key in
      // neither the resident nor the in-flight map.
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      value = InsertLocked(key, std::move(value), bytes);
    }
    promise->set_value(value);
    return {std::move(value), true};
  }

  /// The resident value, touched most-recently-used and counted as a hit;
  /// nullptr when the key is absent or still being built, which counts
  /// nothing — the GetOrBuild a caller follows up with counts the key.
  ValuePtr Find(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    ValuePtr value = TouchLocked(key);
    if (value != nullptr) ++hits_;
    return value;
  }

  /// Pure lookup: no recency touch, no counter — for introspection paths
  /// that must not perturb eviction order or hit rates.
  ValuePtr Peek(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second.value;
  }

  /// Insert-once of an already-built value (a snapshot warm start): returns
  /// the resident value — `value` when this call inserted it, the earlier
  /// one otherwise. `bytes` is the entry's accounted size. Counts neither a
  /// hit nor a miss: the build happened elsewhere.
  ValuePtr Insert(const Key& key, ValuePtr value, size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    return InsertLocked(key, std::move(value), bytes);
  }

  /// Drops the cache's reference to `key` (holders keep theirs). Returns
  /// whether the key was resident. Not counted as an eviction.
  bool Erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.pos);
    map_.erase(it);
    return true;
  }

  /// Sets the byte budget (0 = unlimited) and immediately evicts down to it.
  void set_budget_bytes(size_t budget) {
    std::lock_guard<std::mutex> lock(mu_);
    budget_ = budget;
    EvictOverBudgetLocked();
  }

  size_t budget_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return budget_;
  }

  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

  int64_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(map_.size());
  }

  int64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }

  int64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

  int64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

  /// Resident keys in map order (sorted for ordered Key types).
  std::vector<Key> Keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Key> keys;
    keys.reserve(map_.size());
    for (const auto& [key, entry] : map_) keys.push_back(key);
    return keys;
  }

  /// Resident (key, value) pairs in map order — the snapshot-save walk.
  std::vector<std::pair<Key, ValuePtr>> Items() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<Key, ValuePtr>> items;
    items.reserve(map_.size());
    for (const auto& [key, entry] : map_) items.emplace_back(key, entry.value);
    return items;
  }

 private:
  struct Entry {
    ValuePtr value;
    size_t bytes = 0;
    typename std::list<Key>::iterator pos;  // position in lru_
  };

  ValuePtr TouchLocked(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.value;
  }

  ValuePtr InsertLocked(const Key& key, ValuePtr value, size_t bytes) {
    if (ValuePtr resident = TouchLocked(key)) return resident;
    lru_.push_front(key);
    map_.emplace(key, Entry{value, bytes, lru_.begin()});
    bytes_ += bytes;
    EvictOverBudgetLocked();
    return value;
  }

  void EvictOverBudgetLocked() {
    if (budget_ == 0) return;
    while (bytes_ > budget_ && !lru_.empty()) {
      auto it = map_.find(lru_.back());
      bytes_ -= it->second.bytes;
      map_.erase(it);
      lru_.pop_back();
      ++evictions_;
    }
  }

  mutable std::mutex mu_;
  std::list<Key> lru_;  // front = most recently used
  std::map<Key, Entry> map_;
  // Single-flight latch: one shared_future per key whose build is running.
  // Each waiter copies the future out under the lock and blocks on its copy.
  std::map<Key, std::shared_future<ValuePtr>> inflight_;
  size_t budget_ = 0;  // 0 = unlimited
  size_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace reptile

#endif  // REPTILE_COMMON_LRU_CACHE_H_
