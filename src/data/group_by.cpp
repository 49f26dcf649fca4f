#include "data/group_by.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace reptile {

uint64_t GroupByResult::Hash(std::span<const int32_t> key_tuple) {
  uint64_t h = 1469598103934665603ull;
  for (int32_t v : key_tuple) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    h *= 1099511628211ull;
  }
  return h;
}

void GroupByResult::Rehash(int slot_bits) {
  slot_bits_ = slot_bits;
  slots_.assign(size_t{1} << slot_bits, 0);
  const size_t mask = slots_.size() - 1;
  for (size_t g = 0; g < stats_.size(); ++g) {
    size_t slot = Slot(Hash(key_tuple(g)));
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(g + 1);
  }
}

std::optional<size_t> GroupByResult::Find(std::span<const int32_t> key_tuple) const {
  if (stats_.empty() || key_tuple.size() != width_) return std::nullopt;
  const size_t mask = slots_.size() - 1;
  for (size_t slot = Slot(Hash(key_tuple)); slots_[slot] != 0; slot = (slot + 1) & mask) {
    const size_t g = slots_[slot] - 1;
    if (std::equal(key_tuple.begin(), key_tuple.end(), keys_.begin() + g * width_)) return g;
  }
  return std::nullopt;
}

size_t GroupByResult::GetOrAddGroup(std::span<const int32_t> key_tuple) {
  if (stats_.empty()) {
    width_ = key_tuple.size();
    if (slots_.empty()) Rehash(4);
  }
  REPTILE_CHECK_EQ(key_tuple.size(), width_);
  const size_t mask = slots_.size() - 1;
  size_t slot = Slot(Hash(key_tuple));
  for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
    const size_t g = slots_[slot] - 1;
    if (std::equal(key_tuple.begin(), key_tuple.end(), keys_.begin() + g * width_)) return g;
  }
  const size_t g = stats_.size();
  REPTILE_CHECK_LT(g, size_t{std::numeric_limits<uint32_t>::max()} / 2);
  keys_.insert(keys_.end(), key_tuple.begin(), key_tuple.end());
  stats_.emplace_back();
  slots_[slot] = static_cast<uint32_t>(g + 1);
  if (2 * stats_.size() > slots_.size()) Rehash(slot_bits_ + 1);
  return g;
}

size_t GroupByResult::ApproxBytes() const {
  return sizeof(*this) + keys_.capacity() * sizeof(int32_t) +
         stats_.capacity() * sizeof(Moments) + slots_.capacity() * sizeof(uint32_t);
}

void GroupByResult::ShrinkToFit() {
  keys_.shrink_to_fit();
  stats_.shrink_to_fit();
}

GroupByResult GroupBy(const Table& table, const std::vector<int>& key_columns,
                      int measure_column, const RowFilter& filter) {
  GroupByResult result;
  std::vector<const int32_t*> key_codes;
  key_codes.reserve(key_columns.size());
  for (int column : key_columns) key_codes.push_back(table.dim_codes(column).data());
  const double* measures =
      measure_column >= 0 ? table.measure(measure_column).data() : nullptr;

  std::vector<int32_t> key(key_columns.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!filter.empty() && !table.Matches(filter, row)) continue;
    for (size_t k = 0; k < key_codes.size(); ++k) key[k] = key_codes[k][row];
    size_t group = result.GetOrAddGroup(key);
    double value = measures != nullptr ? measures[row] : 0.0;
    result.mutable_stats(group).Observe(value);
  }
  result.ShrinkToFit();
  return result;
}

std::optional<std::vector<size_t>> SelectGroups(const GroupByResult& groups,
                                                std::span<const int> key_columns,
                                                const RowFilter& filter) {
  std::vector<std::pair<size_t, int32_t>> match;  // (key position, code)
  match.reserve(filter.equals.size());
  for (const auto& [column, code] : filter.equals) {
    auto it = std::find(key_columns.begin(), key_columns.end(), column);
    if (it == key_columns.end()) return std::nullopt;
    match.emplace_back(static_cast<size_t>(it - key_columns.begin()), code);
  }
  if (groups.num_groups() > 0) {
    REPTILE_CHECK_EQ(groups.key_width(), key_columns.size());
  }
  std::vector<size_t> selected;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    bool keep = true;
    for (const auto& [position, code] : match) keep = keep && groups.key(g, position) == code;
    if (keep) selected.push_back(g);
  }
  return selected;
}

}  // namespace reptile
