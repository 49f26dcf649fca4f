// Minimal CSV I/O for Tables, used by the examples to persist generated
// datasets and by users loading their own data. Dimension/measure typing is
// declared by the caller; no quoting or embedded-separator support (values
// must not contain the separator).

#ifndef REPTILE_DATA_CSV_H_
#define REPTILE_DATA_CSV_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "data/table.h"

namespace reptile {

/// Column typing for CSV loading.
struct CsvSpec {
  std::vector<std::string> dimension_columns;
  std::vector<std::string> measure_columns;
  char separator = ',';
};

/// The header fields of CSV `text`: its first line (up to the first '\n'),
/// with one trailing '\r' and then a leading UTF-8 byte-order mark stripped,
/// split on `separator`. A non-empty line has count(separator) + 1 fields (a
/// trailing separator ends in an empty field); an empty line has none. This
/// is the header CsvStreamParser maps columns from, so an append's schema
/// gate (version/append.cpp) sees exactly the names the parser will.
std::vector<std::string> SplitCsvHeader(std::string_view text, char separator);

/// Incremental CSV parser: feed byte chunks as they arrive (from a socket,
/// a file, anywhere), split at any point — mid-line, mid-UTF-8 byte, it
/// doesn't matter — and collect the Table at the end. This is the single
/// parse implementation: LoadCsv / LoadCsvText are thin drivers over it, and
/// the server's streaming upload path feeds it straight from the connection,
/// so a multi-GB CSV is never materialized as one string.
///
/// Errors are sticky: after the first failure Feed() returns false and
/// further chunks are ignored; Finish() reports the failure. Messages are
/// identical to the historical whole-buffer parser (tests pin them):
/// kIoError/kParseError/kNotFound with 1-based data row numbers prefixed by
/// `origin` ("'data.csv'" for files, "inline csv" for uploads).
///
/// Lines are split into string_view fields in place, inside the fed chunk;
/// only a line that straddles two chunks is copied. Measures are read with
/// std::from_chars, and any field it does not accept whole (leading blanks
/// or '+', hex floats, out-of-range values, junk) goes through strtod, so
/// the accepted language and every value are strtod's.
class CsvStreamParser {
 public:
  CsvStreamParser(CsvSpec spec, std::string origin);

  /// Consumes the next chunk. Returns false once the parse has failed —
  /// callers may stop feeding (further chunks are ignored either way).
  bool Feed(std::string_view chunk);

  /// Flushes a trailing unterminated line and returns the parsed Table, or
  /// the first error encountered.
  Result<Table> Finish();

  /// The first failure, or OK while the parse is healthy.
  const Status& status() const { return status_; }

  /// Data rows committed so far (header excluded).
  size_t rows_parsed() const { return row_number_; }

 private:
  bool ProcessLine(std::string_view line);
  bool ProcessHeader(std::vector<std::string> header);
  bool ProcessDataRow(std::string_view line);
  bool Fail(Status status);

  CsvSpec spec_;
  std::string origin_;
  Status status_ = Status::Ok();
  std::string pending_;  // bytes after the last newline seen
  bool header_done_ = false;
  bool saw_any_line_ = false;

  Table table_;
  std::vector<std::string> header_;
  std::vector<int> field_to_column_;  // CSV field index -> table column; -1 = skip
  std::vector<bool> field_is_dim_;
  std::vector<std::string_view> fields_;  // the current row's fields, reused
  size_t row_number_ = 0;  // 1-based data row (header excluded)
};

/// Loads a CSV file with a header row, reading in fixed-size chunks through
/// CsvStreamParser. Columns named in `spec` are loaded (in header order);
/// other columns are ignored. Failures are reported precisely: kIoError when
/// the file cannot be opened, kParseError with the 1-based data row number
/// and offending column for malformed rows (wrong field count, non-numeric
/// measure), kNotFound when a spec column is missing from the header.
Result<Table> LoadCsv(const std::string& path, const CsvSpec& spec);

/// Parses CSV from an in-memory string (same contract as LoadCsv) — the
/// server's inline dataset-upload path. Parse errors carry the 1-based data
/// row prefixed "inline csv" instead of a file path.
Result<Table> LoadCsvText(const std::string& text, const CsvSpec& spec);

/// Writes all columns of `table` to `path`; kIoError on failure.
Status SaveCsv(const Table& table, const std::string& path, char separator = ',');

}  // namespace reptile

#endif  // REPTILE_DATA_CSV_H_
