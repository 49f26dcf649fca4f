// Pure helpers of the benchmark driver: exact percentiles, Server-Timing
// parsing, the in-memory span log with self-time arithmetic, input digests,
// and Prometheus sample lookup. Nothing here talks to a socket or a process,
// so perfbench/tests/bench_util_test.cpp covers all of it.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Exact percentile of raw samples: linear interpolation between the two
/// order statistics around rank q*(n-1) (the "type 7" estimator). q is in
/// [0, 1]. Returns NaN for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Percentile(samples, 0.5).
double Median(std::vector<double> samples);

/// One entry of a Server-Timing header: `name;desc="...";dur=1.234`.
struct TimingEntry {
  std::string name;
  std::string desc;
  double dur_ms = 0.0;
};

/// Parses a Server-Timing header value into its entries, in order. Entries
/// without a name are dropped; a missing or malformed dur reads 0.
std::vector<TimingEntry> ParseServerTiming(const std::string& header);

/// Sum of the durations of every entry called `name` (0 when absent).
double TimingMs(const std::vector<TimingEntry>& entries, const std::string& name);

/// One recorded span. Spans of one request share `trace`; `parent` is 0 for
/// a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Append-only span store, kept in memory and written out once at exit.
/// Not thread-safe: each client thread owns one and they are merged after
/// the threads join.
class SpanLog {
 public:
  /// `id_base` keeps ids unique across the logs of several threads.
  explicit SpanLog(uint64_t id_base = 0) : next_id_(id_base + 1) {}

  uint64_t Add(const std::string& name, uint64_t parent, uint64_t trace, int64_t start_ns,
               int64_t end_ns);
  void Append(const SpanLog& other);
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: id, parent, trace, name, start_ns, end_ns.
  std::string ToJsonLines() const;

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// The span's duration minus the part of it that its direct children cover
/// (overlapping children are counted once, and children are clipped to the
/// parent's interval).
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& all);

/// 16-hex-digit FNV-1a digest of `bytes`.
std::string Digest(const std::string& bytes);

/// Value of the first Prometheus sample line whose series name is exactly
/// `series` (labels ignored), or `fallback` when the body has none.
double PromSample(const std::string& body, const std::string& series, double fallback = 0.0);

/// Every occurrence of `from` in `text` replaced by `to`.
std::string ReplaceAll(std::string text, const std::string& from, const std::string& to);

/// A recommend body with every "train_seconds" and "total_seconds" value
/// replaced by 0: the fields the server's zero_timings option zeroes. Traced
/// runs compare bodies through it, since they leave that option off to get
/// real Server-Timing durations.
std::string ZeroTimingFields(std::string body);

/// The string value of the first `"key":"..."` in a JSON body (no escapes
/// inside the value), or empty.
std::string JsonStringField(const std::string& body, const std::string& key);

/// Decodes every `"key":<integer>` in a JSON body, in order of appearance.
std::vector<int64_t> JsonIntFields(const std::string& body, const std::string& key);

/// Length-prefixed encoding of a string list (the child-process pipe format).
std::string EncodeStrings(const std::vector<std::string>& items);
bool DecodeStrings(const std::string& bytes, std::vector<std::string>* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
