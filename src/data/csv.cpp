#include "data/csv.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace reptile {
namespace {

std::vector<std::string> SplitLine(const std::string& line, char separator) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, separator)) fields.push_back(field);
  if (!line.empty() && line.back() == separator) fields.emplace_back();
  return fields;
}

}  // namespace

CsvStreamParser::CsvStreamParser(CsvSpec spec, std::string origin)
    : spec_(std::move(spec)), origin_(std::move(origin)) {}

bool CsvStreamParser::Fail(Status status) {
  status_ = std::move(status);
  pending_.clear();
  return false;
}

bool CsvStreamParser::Feed(std::string_view chunk) {
  if (!status_.ok()) return false;
  size_t begin = 0;
  while (begin < chunk.size()) {
    size_t newline = chunk.find('\n', begin);
    if (newline == std::string_view::npos) {
      pending_.append(chunk, begin, chunk.size() - begin);
      break;
    }
    std::string line = std::move(pending_);
    pending_.clear();
    line.append(chunk, begin, newline - begin);
    begin = newline + 1;
    if (!ProcessLine(std::move(line))) return false;
  }
  return true;
}

Result<Table> CsvStreamParser::Finish() {
  if (status_.ok() && !pending_.empty()) {
    std::string line = std::move(pending_);
    pending_.clear();
    ProcessLine(std::move(line));
  }
  if (status_.ok() && !saw_any_line_) {
    status_ = Status::ParseError(origin_ + " is empty (expected a header row)");
  }
  if (!status_.ok()) return status_;
  return std::move(table_);
}

bool CsvStreamParser::ProcessLine(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (!header_done_) {
    // Exporters (Excel, PowerShell) prefix UTF-8 files with a byte-order
    // mark; without this strip it would glue onto the first header name.
    // Lines are assembled in pending_ before reaching here, so the strip is
    // chunk-boundary safe.
    if (line.rfind("\xEF\xBB\xBF", 0) == 0) line.erase(0, 3);
    saw_any_line_ = true;
    header_done_ = true;
    return ProcessHeader(line);
  }
  if (line.empty()) return true;  // blank data lines are skipped
  return ProcessDataRow(line);
}

bool CsvStreamParser::ProcessHeader(const std::string& line) {
  header_ = SplitLine(line, spec_.separator);

  // Map CSV field index -> (table column, is_dimension); -1 = skip. Columns
  // are added in header order (the documented contract); spec names that
  // match no header field or more than one are reported precisely.
  field_to_column_.assign(header_.size(), -1);
  field_is_dim_.assign(header_.size(), false);
  std::vector<int> dim_matches(spec_.dimension_columns.size(), 0);
  std::vector<int> measure_matches(spec_.measure_columns.size(), 0);
  for (size_t f = 0; f < header_.size(); ++f) {
    for (size_t n = 0; n < spec_.dimension_columns.size(); ++n) {
      if (header_[f] != spec_.dimension_columns[n]) continue;
      if (++dim_matches[n] > 1 || field_to_column_[f] >= 0) {
        return Fail(Status::ParseError(
            origin_ + ": header names column '" + header_[f] +
            "' more than once or in both dimension and measure specs"));
      }
      field_to_column_[f] = table_.AddDimensionColumn(header_[f]);
      field_is_dim_[f] = true;
    }
    for (size_t n = 0; n < spec_.measure_columns.size(); ++n) {
      if (header_[f] != spec_.measure_columns[n]) continue;
      if (++measure_matches[n] > 1 || field_to_column_[f] >= 0) {
        return Fail(Status::ParseError(
            origin_ + ": header names column '" + header_[f] +
            "' more than once or in both dimension and measure specs"));
      }
      field_to_column_[f] = table_.AddMeasureColumn(header_[f]);
      field_is_dim_[f] = false;
    }
  }
  for (size_t n = 0; n < spec_.dimension_columns.size(); ++n) {
    if (dim_matches[n] == 0) {
      return Fail(Status::NotFound(origin_ + ": dimension column '" +
                                   spec_.dimension_columns[n] +
                                   "' is missing from the header"));
    }
  }
  for (size_t n = 0; n < spec_.measure_columns.size(); ++n) {
    if (measure_matches[n] == 0) {
      return Fail(Status::NotFound(origin_ + ": measure column '" +
                                   spec_.measure_columns[n] +
                                   "' is missing from the header"));
    }
  }
  return true;
}

bool CsvStreamParser::ProcessDataRow(const std::string& line) {
  ++row_number_;
  std::vector<std::string> fields = SplitLine(line, spec_.separator);
  if (fields.size() != header_.size()) {
    return Fail(Status::ParseError(origin_ + " row " + std::to_string(row_number_) +
                                   ": expected " + std::to_string(header_.size()) +
                                   " fields, got " + std::to_string(fields.size())));
  }
  for (size_t f = 0; f < fields.size(); ++f) {
    int column = field_to_column_[f];
    if (column < 0) continue;
    if (field_is_dim_[f]) {
      table_.SetDim(column, fields[f]);
    } else {
      char* end = nullptr;
      double value = std::strtod(fields[f].c_str(), &end);
      while (*end == ' ' || *end == '\t') ++end;  // permit trailing padding
      // strtod accepts "nan", "inf" and overflowing literals such as
      // "1e999"; a non-finite measure would reach the model as a silently
      // meaningless answer, so it is rejected here like any other bad field.
      if (end == fields[f].c_str() || *end != '\0' || !std::isfinite(value)) {
        return Fail(Status::ParseError(origin_ + " row " + std::to_string(row_number_) +
                                       ", column '" + header_[f] + "': cannot parse '" +
                                       fields[f] + "' as a finite number"));
      }
      table_.SetMeasure(column, value);
    }
  }
  table_.CommitRow();
  return true;
}

Result<Table> LoadCsv(const std::string& path, const CsvSpec& spec) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open '" + path + "' for reading");
  CsvStreamParser parser(spec, "'" + path + "'");
  char chunk[64 * 1024];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    if (!parser.Feed(std::string_view(chunk, static_cast<size_t>(in.gcount())))) break;
  }
  return parser.Finish();
}

Result<Table> LoadCsvText(const std::string& text, const CsvSpec& spec) {
  CsvStreamParser parser(spec, "inline csv");
  parser.Feed(text);
  return parser.Finish();
}

Status SaveCsv(const Table& table, const std::string& path, char separator) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open '" + path + "' for writing");
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << separator;
    out << table.column_name(c);
  }
  out << '\n';
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << separator;
      if (table.is_dimension(c)) {
        out << table.dict(c).name(table.dim_codes(c)[row]);
      } else {
        out << table.measure(c)[row];
      }
    }
    out << '\n';
  }
  if (!out.good()) return Status::IoError("error while writing '" + path + "'");
  return Status::Ok();
}

}  // namespace reptile
