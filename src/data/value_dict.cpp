#include "data/value_dict.h"

#include "common/check.h"

namespace reptile {

Result<ValueDict> ValueDict::FromNames(std::vector<std::string> names) {
  ValueDict dict;
  dict.codes_.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    auto [it, inserted] = dict.codes_.emplace(names[i], static_cast<int32_t>(i));
    if (!inserted) {
      return Status::ParseError("corrupt dictionary: duplicate value '" + names[i] + "'");
    }
  }
  dict.names_ = std::move(names);
  return dict;
}

int32_t ValueDict::GetOrAdd(std::string_view value) {
  auto it = codes_.find(value);
  if (it != codes_.end()) return it->second;
  int32_t code = static_cast<int32_t>(names_.size());
  codes_.emplace(std::string(value), code);
  names_.emplace_back(value);
  return code;
}

std::optional<int32_t> ValueDict::Find(std::string_view value) const {
  auto it = codes_.find(value);
  if (it == codes_.end()) return std::nullopt;
  return it->second;
}

const std::string& ValueDict::name(int32_t code) const {
  REPTILE_CHECK(code >= 0 && code < size()) << "bad dictionary code " << code;
  return names_[static_cast<size_t>(code)];
}

}  // namespace reptile
