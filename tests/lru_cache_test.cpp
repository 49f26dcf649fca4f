// The LruByteCache contract every cached build goes through: byte
// accounting against a hard budget, LRU eviction order, insert-once racing,
// single-flight GetOrBuild, counter semantics, and — the safety property the
// shared_ptr design exists for — holders surviving eviction.

#include "common/lru_cache.h"

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "factor/agg_cache.h"
#include "gtest/gtest.h"

namespace reptile {
namespace {

// A built string is accounted at its length.
size_t StringBytes(const std::string& /*key*/, const std::string& value) { return value.size(); }

using Cache = LruByteCache<std::string, std::string, &StringBytes>;

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruByteCache, FindCountsHitsAndMissesAndInsertAccountsBytes) {
  Cache cache;
  // An absent Find counts nothing: the miss is counted once, by the
  // GetOrBuild that follows it and builds.
  EXPECT_EQ(cache.Find("a"), nullptr);
  EXPECT_EQ(cache.misses(), 0);
  cache.Insert("a", Val("alpha"), 100);
  cache.Insert("b", Val("beta"), 50);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.bytes(), 150u);
  ASSERT_NE(cache.Find("a"), nullptr);
  EXPECT_EQ(*cache.Find("a"), "alpha");
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 0);
  // GetOrBuild: a resident key is a hit; an absent one a miss and a build,
  // accounted by the cache's byte function.
  EXPECT_FALSE(cache.GetOrBuild("b", [] { return std::string("unused"); }).second);
  auto [built, performed] = cache.GetOrBuild("c", [] { return std::string("gamma"); });
  EXPECT_TRUE(performed);
  EXPECT_EQ(*built, "gamma");
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.bytes(), 155u);
  // Peek is invisible to the counters.
  EXPECT_NE(cache.Peek("b"), nullptr);
  EXPECT_EQ(cache.Peek("nope"), nullptr);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(LruByteCache, InsertIsInsertOnce) {
  Cache cache;
  auto first = cache.Insert("k", Val("first"), 10);
  auto second = cache.Insert("k", Val("second"), 10);
  // The loser adopts the resident value; bytes are not double-counted.
  EXPECT_EQ(*second, "first");
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.bytes(), 10u);
}

TEST(LruByteCache, EvictsLeastRecentlyUsedPastBudget) {
  Cache cache;
  cache.set_budget_bytes(250);
  cache.Insert("a", Val("a"), 100);
  cache.Insert("b", Val("b"), 100);
  // Touch "a" so "b" is the LRU tail.
  EXPECT_NE(cache.Find("a"), nullptr);
  cache.Insert("c", Val("c"), 100);  // 300 > 250: evicts "b"
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.bytes(), 200u);
  EXPECT_EQ(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
}

TEST(LruByteCache, OversizedEntryIsNotRetained) {
  Cache cache;
  cache.set_budget_bytes(100);
  // The caller still receives a usable pointer; the cache just refuses to
  // keep it, so bytes() <= budget is a hard invariant.
  auto value = cache.Insert("huge", Val("huge"), 1000);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "huge");
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(LruByteCache, ShrinkingBudgetEvictsImmediately) {
  Cache cache;
  cache.Insert("a", Val("a"), 100);
  cache.Insert("b", Val("b"), 100);
  cache.Insert("c", Val("c"), 100);
  cache.set_budget_bytes(150);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_LE(cache.bytes(), 150u);
  // Most recently inserted survives.
  EXPECT_NE(cache.Peek("c"), nullptr);
}

TEST(LruByteCache, HoldersSurviveEviction) {
  Cache cache;
  cache.set_budget_bytes(100);
  auto held = cache.Insert("a", Val("still here"), 100);
  cache.Insert("b", Val("b"), 100);  // evicts "a"
  EXPECT_EQ(cache.Peek("a"), nullptr);
  // The cache dropped only its own reference.
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "still here");
}

TEST(LruByteCache, EraseDropsWithoutCountingEviction) {
  Cache cache;
  cache.Insert("a", Val("a"), 100);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(LruByteCache, KeysAndItemsAreSorted) {
  Cache cache;
  cache.Insert("c", Val("3"), 1);
  cache.Insert("a", Val("1"), 1);
  cache.Insert("b", Val("2"), 1);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"a", "b", "c"}));
  auto items = cache.Items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, "a");
  EXPECT_EQ(*items[2].second, "3");
}

TEST(LruByteCache, ConcurrentInsertersAgreeOnOneResidentValue) {
  Cache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const std::string>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &results, t] {
      results[t] = cache.Insert("k", Val("from " + std::to_string(t)), 10);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t].get(), results[0].get());
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.bytes(), 10u);
}

// The single-flight guarantee, on the aggregate cache: N sessions drilling
// to one absent (hierarchy, depth) at once. The build cannot finish before
// every caller has arrived, so all N calls overlap it: only the first to
// enter finds the key absent, the rest find it in flight (or, if slow,
// already published).
TEST(SharedAggregateCache, ConcurrentGetOrBuildBuildsOnce) {
  SharedAggregateCache cache;
  constexpr int kThreads = 8;
  const AggregateKey key(1, 0, 2);
  std::latch arrived(kThreads);
  std::atomic<int> builds{0};
  std::vector<HierarchyAggregatesPtr> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.count_down();
      auto build = [&] {
        builds.fetch_add(1);
        arrived.wait();
        return HierarchyAggregates();
      };
      results[t] = cache.GetOrBuild(key, build).first;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds.load(), 1);
  for (const HierarchyAggregatesPtr& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result.get(), results[0].get());
  }
  EXPECT_EQ(cache.hits(), kThreads - 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.entries(), 1);
}

}  // namespace
}  // namespace reptile
