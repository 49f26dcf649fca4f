// Column-store table substrate.
//
// A Table is a set of named columns of equal length: dimension columns are
// dictionary-encoded int32 codes (each with its own ValueDict) and measure
// columns are doubles. Reptile's inputs — the base relation and auxiliary
// datasets — are Tables; hierarchy metadata lives in data/hierarchy.h.

#ifndef REPTILE_DATA_TABLE_H_
#define REPTILE_DATA_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "data/value_dict.h"

namespace reptile {

/// Conjunctive equality filter over dimension columns: row matches when every
/// (column, code) pair matches. An empty filter matches all rows.
struct RowFilter {
  std::vector<std::pair<int, int32_t>> equals;  // (dimension column index, code)

  bool empty() const { return equals.empty(); }
  void Add(int column, int32_t code) { equals.emplace_back(column, code); }
};

/// Column-store table. Columns are identified by dense indices in a single
/// namespace; each index is either a dimension or a measure column.
class Table {
 public:
  /// Adds a dimension (categorical) column; returns its column index.
  int AddDimensionColumn(const std::string& name);

  /// Adds a measure (double) column; returns its column index.
  int AddMeasureColumn(const std::string& name);

  /// Column index by name; aborts when absent (use FindColumn to probe).
  int ColumnIndex(const std::string& name) const;

  /// Column index by name or std::nullopt.
  std::optional<int> FindColumn(const std::string& name) const;

  int num_columns() const { return static_cast<int>(names_.size()); }
  size_t num_rows() const { return num_rows_; }
  const std::string& column_name(int column) const { return names_[column]; }
  bool is_dimension(int column) const { return is_dimension_[column]; }

  /// Dictionary of a dimension column.
  const ValueDict& dict(int column) const;
  ValueDict& mutable_dict(int column);

  /// Code vector of a dimension column.
  const std::vector<int32_t>& dim_codes(int column) const;

  /// Value vector of a measure column.
  const std::vector<double>& measure(int column) const;
  std::vector<double>& mutable_measure(int column);

  /// Row-building API: call the three setters for every column, then
  /// CommitRow(). Aborts if a column was not set.
  void SetDim(int column, std::string_view value);
  void SetDimCode(int column, int32_t code);
  void SetMeasure(int column, double value);
  void CommitRow();

  /// Column-building API (snapshot restore): after adding all columns,
  /// install each column's full data in one call, then FinishColumnLoad()
  /// once. Status (not abort) because the data comes from a file: codes must
  /// be in-dictionary and every column must have the same length.
  Status SetDimensionColumnData(int column, ValueDict dict, std::vector<int32_t> codes);
  Status SetMeasureColumnData(int column, std::vector<double> values);
  Status FinishColumnLoad();

  /// A copy of this table with every row of `delta` appended, matching
  /// columns BY NAME — the delta's column order may differ (CSV loads
  /// columns in header order). Dimension values are re-encoded through this
  /// table's dictionaries (GetOrAdd), so existing values keep their codes
  /// and new values take the next codes in first-appearance order — exactly
  /// the assignment a from-scratch load of the concatenated data would
  /// produce. Each column is allocated once, at its final size.
  /// InvalidArgument naming the offending column when the delta's schema
  /// differs (missing column, extra column, dimension/measure kind
  /// mismatch).
  Result<Table> WithRowsAppended(const Table& delta) const;

  /// True when the row passes the filter.
  bool Matches(const RowFilter& filter, size_t row) const;

  /// Returns a copy containing only rows for which `keep` is true.
  Table FilteredCopy(const std::vector<bool>& keep) const;

 private:
  struct DimColumn {
    ValueDict dict;
    std::vector<int32_t> codes;
  };

  size_t num_rows_ = 0;
  std::vector<std::string> names_;
  std::vector<bool> is_dimension_;
  std::vector<int> storage_index_;  // index into dims_ or measures_
  std::vector<DimColumn> dims_;
  std::vector<std::vector<double>> measures_;
  std::vector<bool> row_set_;  // per column: set since last CommitRow

  // This table's columns and dictionaries, with no rows.
  Table EmptyCopy() const;
};

}  // namespace reptile

#endif  // REPTILE_DATA_TABLE_H_
