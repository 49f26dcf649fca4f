#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 0.5); }

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::vector<TimingEntry> ParseServerTiming(const std::string& header) {
  std::vector<TimingEntry> out;
  size_t pos = 0;
  while (pos <= header.size()) {
    // Entries are comma-separated; a quoted desc may not contain commas by
    // the server's contract, but skip over quotes anyway.
    size_t end = pos;
    bool quoted = false;
    while (end < header.size() && (quoted || header[end] != ',')) {
      if (header[end] == '"') quoted = !quoted;
      ++end;
    }
    std::string item = header.substr(pos, end - pos);
    pos = end + 1;
    TimingEntry entry;
    size_t param_pos = 0;
    bool first = true;
    while (param_pos <= item.size()) {
      size_t semi = param_pos;
      bool in_quote = false;
      while (semi < item.size() && (in_quote || item[semi] != ';')) {
        if (item[semi] == '"') in_quote = !in_quote;
        ++semi;
      }
      std::string param = Trim(item.substr(param_pos, semi - param_pos));
      param_pos = semi + 1;
      if (first) {
        entry.name = param;
        first = false;
        continue;
      }
      size_t eq = param.find('=');
      if (eq == std::string::npos) continue;
      std::string key = Trim(param.substr(0, eq));
      std::string value = Trim(param.substr(eq + 1));
      if (key == "dur") {
        char* parse_end = nullptr;
        double ms = std::strtod(value.c_str(), &parse_end);
        entry.dur_ms = (parse_end != value.c_str() && std::isfinite(ms)) ? ms : 0.0;
      } else if (key == "desc") {
        if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
          value = value.substr(1, value.size() - 2);
        }
        entry.desc = value;
      }
    }
    if (!entry.name.empty()) out.push_back(std::move(entry));
    if (end >= header.size()) break;
  }
  return out;
}

double TimingMs(const std::vector<TimingEntry>& entries, const std::string& name) {
  double total = 0.0;
  for (const TimingEntry& e : entries) {
    if (e.name == name) total += e.dur_ms;
  }
  return total;
}

uint64_t SpanLog::Add(const std::string& name, uint64_t parent, uint64_t trace,
                      int64_t start_ns, int64_t end_ns) {
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.trace = trace;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::string SpanLog::ToJsonLines() const {
  std::string out;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"name\":\"",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace),
                  static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    out += buf;
    out += s.name;  // span names are identifiers: no quoting needed
    out += "\"}\n";
  }
  return out;
}

int64_t SelfTimeNs(const Span& span, const std::vector<Span>& all) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& child : all) {
    if (child.parent != span.id || child.id == span.id) continue;
    int64_t b = std::max(child.start_ns, span.start_ns);
    int64_t e = std::min(child.end_ns, span.end_ns);
    if (e > b) covered.emplace_back(b, e);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_b = 0, run_e = 0;
  bool open = false;
  for (const auto& [b, e] : covered) {
    if (open && b <= run_e) {
      run_e = std::max(run_e, e);
      continue;
    }
    if (open) union_ns += run_e - run_b;
    run_b = b;
    run_e = e;
    open = true;
  }
  if (open) union_ns += run_e - run_b;
  return (span.end_ns - span.start_ns) - union_ns;
}

std::string Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double PromSample(const std::string& body, const std::string& series, double fallback) {
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (body[pos] != '#' && body.compare(pos, series.size(), series) == 0) {
      size_t after = pos + series.size();
      if (after < eol && (body[after] == ' ' || body[after] == '{')) {
        size_t value_at = body.rfind(' ', eol - 1);
        if (value_at != std::string::npos && value_at > pos) {
          return std::strtod(body.c_str() + value_at + 1, nullptr);
        }
      }
    }
    pos = eol + 1;
  }
  return fallback;
}

std::string ReplaceAll(std::string text, const std::string& from, const std::string& to) {
  if (from.empty()) return text;
  size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

std::string ZeroTimingFields(std::string body) {
  for (const char* key : {"\"train_seconds\":", "\"total_seconds\":"}) {
    const size_t key_len = std::char_traits<char>::length(key);
    size_t pos = 0;
    while ((pos = body.find(key, pos)) != std::string::npos) {
      pos += key_len;
      size_t end = body.find_first_of(",}]", pos);
      if (end == std::string::npos) end = body.size();
      body.replace(pos, end - pos, "0");
    }
  }
  return body;
}

std::string JsonStringField(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  size_t pos = body.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = body.find('"', pos);
  if (end == std::string::npos) return "";
  return body.substr(pos, end - pos);
}

std::vector<int64_t> JsonIntFields(const std::string& body, const std::string& key) {
  std::vector<int64_t> out;
  const std::string needle = "\"" + key + "\":";
  size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    char* end = nullptr;
    long long v = std::strtoll(body.c_str() + pos, &end, 10);
    if (end != body.c_str() + pos) out.push_back(v);
  }
  return out;
}

std::string EncodeStrings(const std::vector<std::string>& items) {
  std::string out = std::to_string(items.size()) + "\n";
  for (const std::string& item : items) {
    out += std::to_string(item.size()) + "\n";
    out += item;
  }
  return out;
}

bool DecodeStrings(const std::string& bytes, std::vector<std::string>* out) {
  out->clear();
  size_t pos = 0;
  auto read_number = [&](size_t* value) {
    size_t eol = bytes.find('\n', pos);
    if (eol == std::string::npos || eol == pos) return false;
    char* end = nullptr;
    unsigned long long v = std::strtoull(bytes.c_str() + pos, &end, 10);
    if (end != bytes.c_str() + eol) return false;
    *value = static_cast<size_t>(v);
    pos = eol + 1;
    return true;
  };
  size_t count = 0;
  if (!read_number(&count)) return false;
  for (size_t i = 0; i < count; ++i) {
    size_t len = 0;
    if (!read_number(&len) || pos + len > bytes.size()) return false;
    out->push_back(bytes.substr(pos, len));
    pos += len;
  }
  return pos == bytes.size();
}

}  // namespace perfbench
