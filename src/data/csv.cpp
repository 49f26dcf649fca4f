#include "data/csv.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <system_error>
#include <utility>

namespace reptile {
namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

// Views of `line`'s fields: count(separator) + 1 of them for a non-empty
// line (a trailing separator ends in an empty field), none for an empty one.
void SplitFields(std::string_view line, char separator, std::vector<std::string_view>* fields) {
  fields->clear();
  if (line.empty()) return;
  size_t begin = 0;
  for (size_t end; (end = line.find(separator, begin)) != std::string_view::npos;
       begin = end + 1) {
    fields->push_back(line.substr(begin, end - begin));
  }
  fields->push_back(line.substr(begin));
}

// A measure field as strtod reads it, trailing blanks and tabs allowed; false
// unless the whole field is a finite number. from_chars takes the common
// case without a copy. Both parsers round correctly and neither depends on
// the locale here, so wherever from_chars consumes the whole field it yields
// strtod's bits; anything else (leading blanks or '+', hex floats, values
// out of range, embedded NULs, junk) takes strtod's path on a NUL-terminated
// copy, which keeps the accepted language exactly strtod's.
bool ParseMeasure(std::string_view field, double* value) {
  const char* last = field.data() + field.size();
  auto [end, error] = std::from_chars(field.data(), last, *value);
  if (error == std::errc()) {
    while (end != last && (*end == ' ' || *end == '\t')) ++end;
    if (end == last) return std::isfinite(*value);
  }
  const std::string copy(field);
  char* copy_end = nullptr;
  *value = std::strtod(copy.c_str(), &copy_end);
  while (*copy_end == ' ' || *copy_end == '\t') ++copy_end;  // permit trailing padding
  // strtod accepts "nan", "inf" and overflowing literals such as "1e999"; a
  // non-finite measure would reach the model as a silently meaningless
  // answer, so it is rejected like any other bad field.
  return copy_end != copy.c_str() && *copy_end == '\0' && std::isfinite(*value);
}

}  // namespace

std::vector<std::string> SplitCsvHeader(std::string_view text, char separator) {
  std::string_view line = text.substr(0, text.find('\n'));
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  // Exporters (Excel, PowerShell) prefix UTF-8 files with a byte-order mark;
  // without this strip it would glue onto the first header name.
  if (line.starts_with(kUtf8Bom)) line.remove_prefix(kUtf8Bom.size());
  std::vector<std::string_view> fields;
  SplitFields(line, separator, &fields);
  return std::vector<std::string>(fields.begin(), fields.end());
}

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
  if (!pending_.empty()) {
    // A line that straddles chunks is the only one assembled in a copy, so
    // the '\r' and BOM strips see whole lines wherever a boundary falls.
    size_t newline = chunk.find('\n');
    if (newline == std::string_view::npos) {
      pending_.append(chunk);
      return true;
    }
    pending_.append(chunk, 0, newline);
    begin = newline + 1;
    bool ok = ProcessLine(pending_);
    pending_.clear();
    if (!ok) return false;
  }
  while (begin < chunk.size()) {
    size_t newline = chunk.find('\n', begin);
    if (newline == std::string_view::npos) {
      pending_.assign(chunk, begin);
      break;
    }
    if (!ProcessLine(chunk.substr(begin, newline - begin))) return false;
    begin = newline + 1;
  }
  return true;
}

Result<Table> CsvStreamParser::Finish() {
  if (status_.ok() && !pending_.empty()) {
    ProcessLine(pending_);
    pending_.clear();
  }
  if (status_.ok() && !saw_any_line_) {
    status_ = Status::ParseError(origin_ + " is empty (expected a header row)");
  }
  if (!status_.ok()) return status_;
  return std::move(table_);
}

bool CsvStreamParser::ProcessLine(std::string_view line) {
  if (!header_done_) {
    saw_any_line_ = true;
    header_done_ = true;
    return ProcessHeader(SplitCsvHeader(line, spec_.separator));
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return true;  // blank data lines are skipped
  return ProcessDataRow(line);
}

bool CsvStreamParser::ProcessHeader(std::vector<std::string> header) {
  header_ = std::move(header);

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

bool CsvStreamParser::ProcessDataRow(std::string_view line) {
  ++row_number_;
  SplitFields(line, spec_.separator, &fields_);
  if (fields_.size() != header_.size()) {
    return Fail(Status::ParseError(origin_ + " row " + std::to_string(row_number_) +
                                   ": expected " + std::to_string(header_.size()) +
                                   " fields, got " + std::to_string(fields_.size())));
  }
  for (size_t f = 0; f < fields_.size(); ++f) {
    int column = field_to_column_[f];
    if (column < 0) continue;
    if (field_is_dim_[f]) {
      table_.SetDim(column, fields_[f]);
      continue;
    }
    double value = 0.0;
    if (!ParseMeasure(fields_[f], &value)) {
      return Fail(Status::ParseError(origin_ + " row " + std::to_string(row_number_) +
                                     ", column '" + header_[f] + "': cannot parse '" +
                                     std::string(fields_[f]) + "' as a finite number"));
    }
    table_.SetMeasure(column, value);
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
