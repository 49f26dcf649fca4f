// Process-wide metrics primitives for the serving tier (and anything else
// that wants counters): atomic Counter/Gauge, a fixed-bucket log-scaled
// latency Histogram with a lock-free hot path, and a MetricsRegistry that
// names them, renders Prometheus text exposition for GET /metricsz, and
// renders a JSON summary for /healthz.
//
// Design constraints this file answers:
//  * Recording must be cheap enough to sit on every request: Observe() and
//    Increment() are a handful of relaxed atomic RMWs — no locks, no
//    allocation. The registry mutex is only paid on the first Get* for a
//    series (callers cache the returned pointer) and at scrape time.
//  * Determinism for the differential tests: a histogram's count, per-bucket
//    counts, and sum are exact regardless of recording-thread interleaving —
//    bucketing is a pure function of the value and the sum accumulates in
//    integer nanoseconds (no floating-point reassociation), so N threads
//    recording a fixed multiset of values always produce the same snapshot
//    as a sequential replay (tests/obs_test.cpp asserts this under TSan).
//  * One registry per service: ReptileService owns one per instance (two
//    services in one test binary must not fight over series), and every
//    number the server reports is a series on it — values that live
//    elsewhere (cache sums, the front end's counters, the shared pool's
//    depth) as callbacks sampled at render time.
//
// Registered objects live as long as their registry: Get* pointers are
// stable and never invalidated. Names follow Prometheus conventions
// (snake_case, base-unit suffixes, "_total" on counters); label values are
// escaped by the renderer.

#ifndef REPTILE_OBS_METRICS_H_
#define REPTILE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace reptile {

/// Monotonic counter. Thread-safe, lock-free.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Settable point-in-time value. Thread-safe, lock-free.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram over seconds: a 1-2-5 ladder from 1µs to
/// 100s (~3 buckets per decade) plus an overflow bucket, which brackets
/// every latency this system produces — sub-microsecond rounds to the first
/// bucket, anything beyond 100s is pathological and lands in overflow.
/// Buckets are NON-cumulative internally; the Prometheus renderer emits the
/// cumulative `le` form. The sum accumulates in integer nanoseconds so it is
/// exact and scheduling-independent (see the header comment).
class Histogram {
 public:
  static constexpr int kNumBounds = 25;           // finite upper bounds
  static constexpr int kNumBuckets = kNumBounds + 1;  // + overflow (+Inf)

  /// Finite bucket upper bounds in seconds, ascending.
  static const std::array<double, kNumBounds>& BucketBounds();
  /// The bounds as Prometheus `le` label values ("1e-06" ... "100"), index-
  /// aligned with BucketBounds(). Overflow renders as "+Inf".
  static const std::array<const char*, kNumBounds>& BucketLabels();
  /// The bucket `seconds` falls into: first i with seconds <= bound[i], or
  /// kNumBounds (overflow). Pure — the determinism anchor.
  static int BucketIndex(double seconds);

  void Observe(double seconds) {
    buckets_[static_cast<size_t>(BucketIndex(seconds))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9 + 0.5),
                         std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  /// Observations in bucket `i` alone (NOT cumulative), i in [0, kNumBuckets).
  int64_t BucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Upper-bound estimate of the q-quantile (q in (0,1]): the upper bound of
  /// the bucket containing the target rank (the last finite bound when the
  /// rank sits in overflow). 0 when empty.
  double Quantile(double q) const;

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_nanos_{0};
};

/// Label set for one series, rendered as {k="v",...} in registration order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// The Prometheus TYPE of a callback series.
enum class MetricType { kCounter, kGauge };

/// One (label value, sample) pair per series of a labelled callback family.
using LabelledSamples = std::vector<std::pair<std::string, int64_t>>;

/// Names metrics and renders them. Get* is get-or-create: the same
/// (name, labels) always returns the same object, so two components
/// instrumenting the same series share it instead of colliding. A name is
/// bound to one type forever; requesting it as a different type aborts
/// (programming error, same contract as REPTILE_CHECK).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const MetricLabels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const MetricLabels& labels = {});

  /// A series whose value is sampled by calling `fn` at render time — for
  /// values that already live elsewhere (a queue depth, a cache size) and
  /// should not be mirrored on every change. `fn` must be thread-safe and is
  /// called under the registry mutex: keep it cheap, never let it call back
  /// into this registry, and never let it outlive what it reads.
  void RegisterCallback(const std::string& name, const std::string& help, MetricType type,
                        std::function<int64_t()> fn);

  /// A labelled callback family: at render time `fn` returns one (label
  /// value, sample) pair per series, rendered as name{label_key="value"} in
  /// the order returned. Same contract as RegisterCallback.
  void RegisterCallbackFamily(const std::string& name, const std::string& help,
                              MetricType type, std::string label_key,
                              std::function<LabelledSamples()> fn);

  /// Prometheus text exposition (version 0.0.4): families sorted by name,
  /// series sorted by label string, histograms in cumulative `le` form.
  std::string RenderPrometheus() const;

  /// JSON object keyed by family name; each family is a list of
  /// {"labels":{...},"value":N} (counter/gauge) or {"labels":{...},
  /// "count":N,"sum_seconds":S,"p50":...,"p90":...,"p99":...} (histogram).
  /// Embedded in /healthz as "metrics".
  std::string RenderJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallbackCounter, kCallbackGauge };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<int64_t()> callback;
  };

  struct Family {
    std::string help;
    Kind kind;
    std::map<std::string, Series> series;  // by rendered label string
    std::string label_key;                 // RegisterCallbackFamily's
    std::function<LabelledSamples()> samples;
  };

  /// One sample of a counter or gauge family, callbacks evaluated.
  struct Sample {
    std::string label_string;
    MetricLabels labels;
    int64_t value;
  };

  Family& FamilyFor(const std::string& name, const std::string& help, Kind kind);
  static std::vector<Sample> Samples(const Family& family);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace reptile

#endif  // REPTILE_OBS_METRICS_H_
