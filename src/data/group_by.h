// Hash group-by over a Table producing distributive aggregate sketches
// (count / sum / sum-of-squares) per group. This is the substrate behind
// aggregate views, featurization, the y-vector builder, and the baselines.

#ifndef REPTILE_DATA_GROUP_BY_H_
#define REPTILE_DATA_GROUP_BY_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "agg/aggregates.h"
#include "data/table.h"

namespace reptile {

/// Result of a group-by: one entry per distinct key combination, in first-seen
/// order, with per-group moment sketches over one measure column (or counts
/// only when no measure was given). Flat: every group's key codes sit in one
/// array with a stride of the key width, and the index is an open-addressing
/// table of group ids, so adding a row to an existing group allocates
/// nothing and no key is stored twice.
class GroupByResult {
 public:
  size_t num_groups() const { return stats_.size(); }
  size_t key_width() const { return width_; }

  /// Key code of group `g` for the k-th key column.
  int32_t key(size_t g, size_t k) const { return keys_[g * width_ + k]; }
  std::span<const int32_t> key_tuple(size_t g) const {
    return {keys_.data() + g * width_, width_};
  }

  const Moments& stats(size_t g) const { return stats_[g]; }
  Moments& mutable_stats(size_t g) { return stats_[g]; }

  /// Index of the group with the given key tuple, or std::nullopt.
  std::optional<size_t> Find(std::span<const int32_t> key_tuple) const;
  std::optional<size_t> Find(std::initializer_list<int32_t> key_tuple) const {
    return Find(std::span<const int32_t>(key_tuple.begin(), key_tuple.size()));
  }

  /// Internal: appends or finds a group for the key tuple. The first group
  /// added fixes the key width; every later tuple must have it.
  size_t GetOrAddGroup(std::span<const int32_t> key_tuple);

  /// Heap bytes held (vector capacities), for cache accounting.
  size_t ApproxBytes() const;

  /// Drops spare vector capacity; GroupBy calls it once its scan is done.
  void ShrinkToFit();

 private:
  static uint64_t Hash(std::span<const int32_t> key_tuple);
  // Slot of `hash` in a table of 2^slot_bits_ slots. A power-of-two mask
  // would keep only the hash's low bits, so the multiply folds the high
  // bits in and the shift takes the product's top bits.
  size_t Slot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> (64 - slot_bits_));
  }
  void Rehash(int slot_bits);

  size_t width_ = 0;
  std::vector<int32_t> keys_;  // num_groups() x width_
  std::vector<Moments> stats_;
  // Open-addressing index: group id + 1 per slot, 0 = empty; at most half
  // full, linear probing.
  std::vector<uint32_t> slots_;
  int slot_bits_ = 0;
};

/// Groups the rows of `table` matching `filter` by the given dimension
/// columns, aggregating `measure_column` (pass -1 to aggregate counts only;
/// sum/sumsq then accumulate the constant 0).
GroupByResult GroupBy(const Table& table, const std::vector<int>& key_columns,
                      int measure_column, const RowFilter& filter = RowFilter());

/// The groups of `groups` (grouped by `key_columns`) whose key codes satisfy
/// every equality of `filter`, in group order; std::nullopt when some filter
/// column is not a key column. A row matches a filter on key columns exactly
/// when its group's key does, so for the unfiltered GroupBy over a table
/// this selects the groups — in their first-seen order, with their very
/// Moments — that the filtered GroupBy over the same table makes.
std::optional<std::vector<size_t>> SelectGroups(const GroupByResult& groups,
                                                std::span<const int> key_columns,
                                                const RowFilter& filter);

}  // namespace reptile

#endif  // REPTILE_DATA_GROUP_BY_H_
