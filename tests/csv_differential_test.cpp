// CsvStreamDifferential: the CSV tokenizer against a verbatim copy of the
// tokenizer it replaced (an istringstream line splitter plus strtod on every
// measure), over edge-case inputs and a seeded mutation corpus. Every case
// must give the same table — column names and kinds, dictionary names in code
// order, codes, and measure bit patterns — or the same Status::ToString(),
// whether the new parser is fed the case whole or in random chunks.
// scripts/check.sh runs these under ASan/UBSan (its CsvStream filter).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/csv.h"
#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "sim/oracle.h"

namespace reptile {
namespace {

// ---- The reference: the replaced tokenizer, verbatim apart from its name ---

std::vector<std::string> SplitLine(const std::string& line, char separator) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, separator)) fields.push_back(field);
  if (!line.empty() && line.back() == separator) fields.emplace_back();
  return fields;
}

class ReferenceCsvParser {
 public:
  ReferenceCsvParser(CsvSpec spec, std::string origin)
      : spec_(std::move(spec)), origin_(std::move(origin)) {}

  bool Feed(std::string_view chunk) {
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

  Result<Table> Finish() {
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

 private:
  bool Fail(Status status) {
    status_ = std::move(status);
    pending_.clear();
    return false;
  }

  bool ProcessLine(std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!header_done_) {
      if (line.rfind("\xEF\xBB\xBF", 0) == 0) line.erase(0, 3);
      saw_any_line_ = true;
      header_done_ = true;
      return ProcessHeader(line);
    }
    if (line.empty()) return true;  // blank data lines are skipped
    return ProcessDataRow(line);
  }

  bool ProcessHeader(const std::string& line) {
    header_ = SplitLine(line, spec_.separator);
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

  bool ProcessDataRow(const std::string& line) {
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

  CsvSpec spec_;
  std::string origin_;
  Status status_ = Status::Ok();
  std::string pending_;
  bool header_done_ = false;
  bool saw_any_line_ = false;
  Table table_;
  std::vector<std::string> header_;
  std::vector<int> field_to_column_;
  std::vector<bool> field_is_dim_;
  size_t row_number_ = 0;
};

// ---- Comparing outcomes ------------------------------------------------------

// Everything a parse decides: the error string, or the whole table with
// measures as bit patterns.
std::string Outcome(const Result<Table>& result) {
  if (!result.ok()) return "error " + result.status().ToString();
  const Table& table = *result;
  std::string out = "rows " + std::to_string(table.num_rows()) + "\n";
  char bits[32];
  for (int c = 0; c < table.num_columns(); ++c) {
    out += table.column_name(c) + (table.is_dimension(c) ? " [dim]\n" : " [measure]\n");
    if (table.is_dimension(c)) {
      const ValueDict& dict = table.dict(c);
      for (int32_t code = 0; code < dict.size(); ++code) out += " '" + dict.name(code) + "'";
      out += "\n";
      for (int32_t code : table.dim_codes(c)) out += " " + std::to_string(code);
    } else {
      for (double value : table.measure(c)) {
        uint64_t pattern = 0;
        std::memcpy(&pattern, &value, sizeof(pattern));
        std::snprintf(bits, sizeof(bits), " %016llx", static_cast<unsigned long long>(pattern));
        out += bits;
      }
    }
    out += "\n";
  }
  return out;
}

std::string ReferenceOutcome(const CsvSpec& spec, const std::string& text) {
  ReferenceCsvParser parser(spec, "inline csv");
  parser.Feed(text);
  return Outcome(parser.Finish());
}

// Feeds `text` in the chunks that `cuts` (ascending offsets) delimit.
std::string ChunkedOutcome(const CsvSpec& spec, const std::string& text,
                           const std::vector<size_t>& cuts) {
  CsvStreamParser parser(spec, "inline csv");
  size_t begin = 0;
  for (size_t cut : cuts) {
    if (!parser.Feed(std::string_view(text).substr(begin, cut - begin))) break;
    begin = cut;
  }
  if (parser.status().ok()) parser.Feed(std::string_view(text).substr(begin));
  return Outcome(parser.Finish());
}

std::string Printable(const std::string& text) {
  std::string out;
  char hex[8];
  for (unsigned char ch : text) {
    if (ch >= 0x20 && ch < 0x7f && ch != '\\') {
      out += static_cast<char>(ch);
    } else {
      std::snprintf(hex, sizeof(hex), "\\x%02x", ch);
      out += hex;
    }
  }
  return out;
}

// ---- The corpus ---------------------------------------------------------------

struct Case {
  CsvSpec spec;
  std::string text;
};

CsvSpec Spec(std::vector<std::string> dims, std::vector<std::string> measures,
             char separator = ',') {
  CsvSpec spec;
  spec.dimension_columns = std::move(dims);
  spec.measure_columns = std::move(measures);
  spec.separator = separator;
  return spec;
}

std::vector<Case> Corpus() {
  const CsvSpec dym = Spec({"d", "y"}, {"m"});
  std::vector<Case> corpus;
  // Measure edge cases, each between two well-formed rows.
  const std::vector<std::string> measures = {
      "+1.5", " 1.5", "  -2", "1.5 ", "1.5\t", "1.5 \t ", "\t1", "0x1p3", "0X1P-2", "0x",
      "nan", "NaN", "inf", "-inf", "INFINITY", "nan(123)", "1e999", "-1e999", "1e-400",
      "4.9e-324", "2.4e-324", "1e-320", "-0", "0", ".5", "5.", "-.5e1", "1e", "1e+", "1.5x",
      "", " ", "-", "+", ".", "e5", "1e+5", "1E5", "1.7976931348623157e308",
      "1.7976931348623159e308", "2.2250738585072011e-308", "123456789012345678901234567890",
      "0.123456789012345678901234567890", "1.000000000000000000000000000001", "1_000",
      "1.5\r", "0.1", "-3.25", "7"};
  for (const std::string& m : measures) {
    corpus.push_back({dym, "d,y,m\nd0,y0," + m + "\nd1,y1,2\n"});
  }
  // Framing edge cases.
  const std::vector<std::string> framing = {
      "d,y,m\nd0,y0,1,\n",                        // trailing separator: one field too many
      "d,y,m,\nd0,y0,1,\nd1,y1,2,\n",             // ... matched by the header's
      "d,y,m\nd0,y0\n",                           // too few fields
      "d,y,m\nd0,y0,1,2\n",                       // too many fields
      "d,y,m\n\nd0,y0,1\n\n\r\nd1,y1,2\n\n",     // blank lines
      "\xEF\xBB\xBF" "d,y,m\r\nd0,y0,1\r\nd1,y1,2\r\n",  // BOM + CRLF
      "\xEF\xBB\xBF\xEF\xBB\xBF" "d,y,m\nd0,y0,1\n",     // a second BOM is a name byte
      "d,y,m\nd0,y0,1\nd1,y1,2",                  // no trailing newline
      "d,y,m\r\nd0,y0,1\r\r\n",                   // only one '\r' is stripped
      "d,y,m\nd0\r,y0,1\n",                       // '\r' inside a line is data
      std::string("d,y,m\nd0,y0,1\0x\n", 17),     // NUL inside a measure
      std::string("d,y,m\nd\0,y0,1\n", 15),       // NUL inside a dimension value
      std::string("d,y,m\0\nd0,y0,1\n", 15),      // NUL inside the header
      "",                                         // empty input
      "d,y,m",                                    // header only, unterminated
      "\r\n",                                     // an empty header
      "\n\nd0,y0,1\n",                            // ... followed by data
      "x,d,m,y\n1,d0,2,y0\n3,d1,4,y1\n",          // an ignored column, reordered
      "d,d,y,m\nd0,d0,y0,1\n",                    // a duplicated column
      "d,m\nd0,1\n",                              // a missing column
      ",,,\n,,,\n",                               // empty names and values
      "d,y,m\nd0,y0,1\nd0,y0,1\nd0,y1,1\n",       // repeated values keep their codes
      "d,y,m\nd2,y0,1\nd1,y0,2\nd0,y0,3\nd1,y1,4\n",  // codes in first-appearance order
  };
  for (const std::string& text : framing) corpus.push_back({dym, text});
  corpus.push_back({Spec({"d", "y"}, {"m"}, ';'), "d;y;m\nd0;y0;1,5\nd1;y1; 2 \n"});
  corpus.push_back({Spec({"d", "y"}, {"m"}, '\t'), "d\ty\tm\nd0\ty0\t1.5\nd1\ty1\t2 \n"});
  corpus.push_back({Spec({"d"}, {"m", "y"}), "d,m,y\nd0,1,2\nd1,3,4\n"});
  // Rows as the server's own renderer writes them.
  PanelSpec panel;
  panel.districts = 2;
  panel.villages_per_district = 2;
  panel.years = 3;
  panel.rows_per_group = 2;
  corpus.push_back({Spec({"district", "village", "year"}, {"severity"}),
                    RenderTableCsv(MakeSeverityPanel(panel).table())});
  return corpus;
}

// Bytes a mutation inserts: framing bytes, number syntax and BOM bytes.
constexpr char kInsertable[] = ",\n\r \t+-.0123456789eExXpPnaifNAIF\xEF\xBB\xBF";

std::string Mutate(std::string text, Rng* rng) {
  const int edits = static_cast<int>(rng->UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const int64_t size = static_cast<int64_t>(text.size());
    switch (rng->UniformInt(0, 4)) {
      case 0:  // flip one bit
        if (size > 0) text[static_cast<size_t>(rng->UniformInt(0, size - 1))] ^=
            static_cast<char>(1 << rng->UniformInt(0, 7));
        break;
      case 1: {  // insert a byte: usually a meaningful one, sometimes any
        char byte = rng->Bernoulli(0.8)
                        ? kInsertable[rng->UniformInt(0, sizeof(kInsertable) - 2)]
                        : static_cast<char>(rng->UniformInt(0, 255));
        text.insert(static_cast<size_t>(rng->UniformInt(0, size)), 1, byte);
        break;
      }
      case 2:  // delete a byte
        if (size > 0) text.erase(static_cast<size_t>(rng->UniformInt(0, size - 1)), 1);
        break;
      default: {  // duplicate or drop a whole line
        std::vector<size_t> starts = {0};
        for (size_t i = 0; i < text.size(); ++i) {
          if (text[i] == '\n' && i + 1 < text.size()) starts.push_back(i + 1);
        }
        size_t line = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(starts.size()) - 1));
        size_t begin = starts[line];
        size_t end = line + 1 < starts.size() ? starts[line + 1] : text.size();
        if (rng->Bernoulli(0.5)) {
          text.insert(begin, text.substr(begin, end - begin));
        } else {
          text.erase(begin, end - begin);
        }
        break;
      }
    }
  }
  return text;
}

std::vector<size_t> RandomCuts(size_t size, Rng* rng) {
  std::vector<size_t> cuts;
  if (size == 0) return cuts;
  if (rng->Bernoulli(0.2)) {  // byte by byte
    for (size_t i = 1; i < size; ++i) cuts.push_back(i);
    return cuts;
  }
  const int count = static_cast<int>(rng->UniformInt(1, 6));
  for (int i = 0; i < count; ++i) {
    cuts.push_back(static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(size))));
  }
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

TEST(CsvStreamDifferential, EdgeCasesMatchTheReferenceAtEveryChunkSize) {
  for (const Case& c : Corpus()) {
    const std::string expected = ReferenceOutcome(c.spec, c.text);
    for (size_t chunk = 1; chunk <= c.text.size() + 1 && chunk <= 64; ++chunk) {
      std::vector<size_t> cuts;
      for (size_t at = chunk; at < c.text.size(); at += chunk) cuts.push_back(at);
      ASSERT_EQ(ChunkedOutcome(c.spec, c.text, cuts), expected)
          << "input \"" << Printable(c.text) << "\" chunk=" << chunk;
    }
  }
}

TEST(CsvStreamDifferential, MutatedCorpusMatchesTheReference) {
  constexpr uint64_t kSeed = 2024;
  constexpr int kCasesPerInput = 40;
  const std::vector<Case> corpus = Corpus();
  int cases = 0;
  int parsed = 0;
  for (size_t input = 0; input < corpus.size(); ++input) {
    for (int k = 0; k < kCasesPerInput; ++k) {
      // One sub-stream per case: any case replays alone from (seed, stream).
      const uint64_t stream = input * kCasesPerInput + static_cast<uint64_t>(k);
      Rng rng(kSeed, stream);
      const Case& base = corpus[input];
      const std::string text = Mutate(base.text, &rng);
      const std::string expected = ReferenceOutcome(base.spec, text);
      ASSERT_EQ(ChunkedOutcome(base.spec, text, {}), expected)
          << "stream " << stream << " input \"" << Printable(text) << "\"";
      const std::vector<size_t> cuts = RandomCuts(text.size(), &rng);
      ASSERT_EQ(ChunkedOutcome(base.spec, text, cuts), expected)
          << "stream " << stream << " (chunked) input \"" << Printable(text) << "\"";
      ++cases;
      if (expected.rfind("error ", 0) != 0) ++parsed;
    }
  }
  EXPECT_GE(cases, 3000);
  // Mutations must leave enough inputs parseable for the table side of the
  // comparison to be exercised, not only the error strings.
  EXPECT_GE(parsed, cases / 10) << parsed << " of " << cases << " cases parsed";
}

}  // namespace
}  // namespace reptile
