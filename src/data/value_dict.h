// Dictionary encoding for categorical (dimension) attribute values.
// Every dimension column in a Table owns a ValueDict mapping strings to dense
// int32 codes; all downstream structures (f-trees, feature maps) operate on
// codes only.

#ifndef REPTILE_DATA_VALUE_DICT_H_
#define REPTILE_DATA_VALUE_DICT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/status.h"

namespace reptile {

/// Bidirectional string <-> dense code dictionary. Codes are assigned in
/// insertion order starting at 0.
class ValueDict {
 public:
  /// Rebuilds a dictionary from its insertion-ordered name list (the
  /// snapshot wire form). kParseError on duplicate names — a valid
  /// dictionary cannot contain them.
  static Result<ValueDict> FromNames(std::vector<std::string> names);

  /// Returns the code for `value`, inserting it if absent. A lookup of a
  /// present value allocates nothing.
  int32_t GetOrAdd(std::string_view value);

  /// Returns the code for `value` or std::nullopt when absent.
  std::optional<int32_t> Find(std::string_view value) const;

  /// The string for a code; the code must be valid.
  const std::string& name(int32_t code) const;

  /// Number of distinct values.
  int32_t size() const { return static_cast<int32_t>(names_.size()); }

 private:
  // Transparent hash: codes_ is probed with a string_view (a CSV field in
  // the parser's buffer) without building a std::string per lookup.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view value) const {
      return std::hash<std::string_view>{}(value);
    }
  };

  std::unordered_map<std::string, int32_t, NameHash, std::equal_to<>> codes_;
  std::vector<std::string> names_;
};

}  // namespace reptile

#endif  // REPTILE_DATA_VALUE_DICT_H_
