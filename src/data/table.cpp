#include "data/table.h"

#include "common/check.h"

namespace reptile {

int Table::AddDimensionColumn(const std::string& name) {
  REPTILE_CHECK_EQ(num_rows_, 0u) << "add columns before rows";
  int column = num_columns();
  names_.push_back(name);
  is_dimension_.push_back(true);
  storage_index_.push_back(static_cast<int>(dims_.size()));
  dims_.emplace_back();
  row_set_.push_back(false);
  return column;
}

int Table::AddMeasureColumn(const std::string& name) {
  REPTILE_CHECK_EQ(num_rows_, 0u) << "add columns before rows";
  int column = num_columns();
  names_.push_back(name);
  is_dimension_.push_back(false);
  storage_index_.push_back(static_cast<int>(measures_.size()));
  measures_.emplace_back();
  row_set_.push_back(false);
  return column;
}

int Table::ColumnIndex(const std::string& name) const {
  std::optional<int> column = FindColumn(name);
  REPTILE_CHECK(column.has_value()) << "no column named " << name;
  return *column;
}

std::optional<int> Table::FindColumn(const std::string& name) const {
  for (int c = 0; c < num_columns(); ++c) {
    if (names_[c] == name) return c;
  }
  return std::nullopt;
}

const ValueDict& Table::dict(int column) const {
  REPTILE_CHECK(is_dimension_[column]) << names_[column] << " is not a dimension";
  return dims_[storage_index_[column]].dict;
}

ValueDict& Table::mutable_dict(int column) {
  REPTILE_CHECK(is_dimension_[column]) << names_[column] << " is not a dimension";
  return dims_[storage_index_[column]].dict;
}

const std::vector<int32_t>& Table::dim_codes(int column) const {
  REPTILE_CHECK(is_dimension_[column]) << names_[column] << " is not a dimension";
  return dims_[storage_index_[column]].codes;
}

const std::vector<double>& Table::measure(int column) const {
  REPTILE_CHECK(!is_dimension_[column]) << names_[column] << " is not a measure";
  return measures_[storage_index_[column]];
}

std::vector<double>& Table::mutable_measure(int column) {
  REPTILE_CHECK(!is_dimension_[column]) << names_[column] << " is not a measure";
  return measures_[storage_index_[column]];
}

void Table::SetDim(int column, std::string_view value) {
  SetDimCode(column, mutable_dict(column).GetOrAdd(value));
}

void Table::SetDimCode(int column, int32_t code) {
  DimColumn& dim = dims_[storage_index_[column]];
  REPTILE_CHECK(is_dimension_[column]);
  REPTILE_CHECK(!row_set_[column]) << "column " << names_[column] << " set twice";
  dim.codes.push_back(code);
  row_set_[column] = true;
}

void Table::SetMeasure(int column, double value) {
  REPTILE_CHECK(!is_dimension_[column]);
  REPTILE_CHECK(!row_set_[column]) << "column " << names_[column] << " set twice";
  measures_[storage_index_[column]].push_back(value);
  row_set_[column] = true;
}

void Table::CommitRow() {
  for (int c = 0; c < num_columns(); ++c) {
    REPTILE_CHECK(row_set_[c]) << "column " << names_[c] << " not set in row " << num_rows_;
    row_set_[c] = false;
  }
  ++num_rows_;
}

Status Table::SetDimensionColumnData(int column, ValueDict dict, std::vector<int32_t> codes) {
  if (column < 0 || column >= num_columns() || !is_dimension_[column]) {
    return Status::ParseError("corrupt table: bad dimension column index");
  }
  for (int32_t code : codes) {
    if (code < 0 || code >= dict.size()) {
      return Status::ParseError("corrupt table: code outside column '" +
                                names_[column] + "' dictionary");
    }
  }
  DimColumn& dim = dims_[storage_index_[column]];
  dim.dict = std::move(dict);
  dim.codes = std::move(codes);
  return Status::Ok();
}

Status Table::SetMeasureColumnData(int column, std::vector<double> values) {
  if (column < 0 || column >= num_columns() || is_dimension_[column]) {
    return Status::ParseError("corrupt table: bad measure column index");
  }
  measures_[storage_index_[column]] = std::move(values);
  return Status::Ok();
}

Status Table::FinishColumnLoad() {
  size_t rows = 0;
  bool first = true;
  for (int c = 0; c < num_columns(); ++c) {
    size_t len = is_dimension_[c] ? dims_[storage_index_[c]].codes.size()
                                  : measures_[storage_index_[c]].size();
    if (first) {
      rows = len;
      first = false;
    } else if (len != rows) {
      return Status::ParseError("corrupt table: column '" + names_[c] +
                                "' length disagrees with the other columns");
    }
  }
  num_rows_ = rows;
  return Status::Ok();
}

Result<Table> Table::WithRowsAppended(const Table& delta) const {
  // Validate the full schema up front — the serving tier maps these errors
  // to HTTP 400.
  std::vector<int> delta_column(names_.size(), -1);
  for (int c = 0; c < num_columns(); ++c) {
    std::optional<int> dc = delta.FindColumn(names_[c]);
    if (!dc.has_value()) {
      return Status::InvalidArgument("appended rows are missing column '" + names_[c] + "'");
    }
    if (delta.is_dimension(*dc) != is_dimension_[c]) {
      return Status::InvalidArgument(
          std::string("appended column '") + names_[c] + "' is a " +
          (delta.is_dimension(*dc) ? "dimension" : "measure") +
          " but the dataset column is a " + (is_dimension_[c] ? "dimension" : "measure"));
    }
    delta_column[c] = *dc;
  }
  for (int dc = 0; dc < delta.num_columns(); ++dc) {
    if (!FindColumn(delta.column_name(dc)).has_value()) {
      return Status::InvalidArgument("appended rows carry unknown column '" +
                                     delta.column_name(dc) + "'");
    }
  }
  const size_t rows = num_rows_ + delta.num_rows();
  Table out = EmptyCopy();
  out.num_rows_ = rows;
  for (int c = 0; c < num_columns(); ++c) {
    const int dc = delta_column[c];
    const size_t s = static_cast<size_t>(storage_index_[c]);
    if (is_dimension_[c]) {
      DimColumn& dim = out.dims_[s];
      dim.codes.reserve(rows);
      dim.codes.assign(dims_[s].codes.begin(), dims_[s].codes.end());
      for (int32_t code : delta.dim_codes(dc)) {
        dim.codes.push_back(dim.dict.GetOrAdd(delta.dict(dc).name(code)));
      }
    } else {
      std::vector<double>& values = out.measures_[s];
      values.reserve(rows);
      values.assign(measures_[s].begin(), measures_[s].end());
      values.insert(values.end(), delta.measure(dc).begin(), delta.measure(dc).end());
    }
  }
  return out;
}

bool Table::Matches(const RowFilter& filter, size_t row) const {
  for (const auto& [column, code] : filter.equals) {
    if (dim_codes(column)[row] != code) return false;
  }
  return true;
}

Table Table::FilteredCopy(const std::vector<bool>& keep) const {
  REPTILE_CHECK_EQ(keep.size(), num_rows_);
  Table out = EmptyCopy();
  for (size_t row = 0; row < num_rows_; ++row) {
    if (!keep[row]) continue;
    for (size_t d = 0; d < dims_.size(); ++d) {
      out.dims_[d].codes.push_back(dims_[d].codes[row]);
    }
    for (size_t m = 0; m < measures_.size(); ++m) {
      out.measures_[m].push_back(measures_[m][row]);
    }
    ++out.num_rows_;
  }
  return out;
}

Table Table::EmptyCopy() const {
  Table out;
  out.names_ = names_;
  out.is_dimension_ = is_dimension_;
  out.storage_index_ = storage_index_;
  out.row_set_.assign(names_.size(), false);
  out.dims_.resize(dims_.size());
  out.measures_.resize(measures_.size());
  for (size_t d = 0; d < dims_.size(); ++d) out.dims_[d].dict = dims_[d].dict;
  return out;
}

}  // namespace reptile
