#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/json_util.h"

namespace reptile {

namespace {

// The 1-2-5 ladder and its exact `le` spellings, index-aligned. Hardcoded
// (rather than snprintf'd at startup) so the Prometheus golden test pins the
// wire format byte-for-byte.
constexpr std::array<double, Histogram::kNumBounds> kBounds = {
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2,
    2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 100.0};

constexpr std::array<const char*, Histogram::kNumBounds> kBoundLabels = {
    "1e-06",  "2e-06",  "5e-06", "1e-05", "2e-05", "5e-05", "0.0001",
    "0.0002", "0.0005", "0.001", "0.002", "0.005", "0.01",  "0.02",
    "0.05",   "0.1",    "0.2",   "0.5",   "1",     "2",     "5",
    "10",     "20",     "50",    "100"};

std::string RenderLabelString(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    // Text format 0.0.4 escapes exactly these three; anything else (a tab in
    // a client-chosen dataset name) passes through raw.
    for (char c : labels[i].second) {
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      if (c == '\\' || c == '"') out += '\\';
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

// `base{existing,le="X"}` — splices `le` into a possibly-empty label string.
std::string WithLeLabel(const std::string& label_string, const char* le) {
  if (label_string.empty()) return std::string("{le=\"") + le + "\"}";
  std::string out = label_string.substr(0, label_string.size() - 1);
  out += ",le=\"";
  out += le;
  out += "\"}";
  return out;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", seconds);
  return buf;
}

}  // namespace

const std::array<double, Histogram::kNumBounds>& Histogram::BucketBounds() {
  return kBounds;
}

const std::array<const char*, Histogram::kNumBounds>& Histogram::BucketLabels() {
  return kBoundLabels;
}

int Histogram::BucketIndex(double seconds) {
  const auto it = std::lower_bound(kBounds.begin(), kBounds.end(), seconds);
  return static_cast<int>(it - kBounds.begin());  // == kNumBounds -> overflow
}

double Histogram::Quantile(double q) const {
  // Snapshot bucket counts once; concurrent Observes may land between loads,
  // so derive the total from the snapshot rather than count_.
  std::array<int64_t, kNumBuckets> counts;
  int64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<size_t>(i)] = BucketCount(i);
    total += counts[static_cast<size_t>(i)];
  }
  if (total == 0) return 0.0;
  const int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(q * static_cast<double>(total) + 0.5));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts[static_cast<size_t>(i)];
    if (seen >= rank) {
      return kBounds[static_cast<size_t>(std::min(i, kNumBounds - 1))];
    }
  }
  return kBounds[kNumBounds - 1];
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(const std::string& name,
                                                    const std::string& help,
                                                    Kind kind) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.kind = kind;
  } else {
    REPTILE_CHECK(it->second.kind == kind)
        << "metric '" << name << "' registered twice with different types";
  }
  return it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const std::string& help,
                                     const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, Kind::kCounter);
  Series& series = family.series[RenderLabelString(labels)];
  if (!series.counter) {
    series.labels = labels;
    series.counter = std::make_unique<Counter>();
  }
  return series.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& help,
                                 const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, Kind::kGauge);
  Series& series = family.series[RenderLabelString(labels)];
  if (!series.gauge) {
    series.labels = labels;
    series.gauge = std::make_unique<Gauge>();
  }
  return series.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, const std::string& help,
                                         const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(name, help, Kind::kHistogram);
  Series& series = family.series[RenderLabelString(labels)];
  if (!series.histogram) {
    series.labels = labels;
    series.histogram = std::make_unique<Histogram>();
  }
  return series.histogram.get();
}

void MetricsRegistry::RegisterCallback(const std::string& name, const std::string& help,
                                       MetricType type, std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(
      name, help, type == MetricType::kCounter ? Kind::kCallbackCounter : Kind::kCallbackGauge);
  family.series[""].callback = std::move(fn);
}

void MetricsRegistry::RegisterCallbackFamily(const std::string& name, const std::string& help,
                                             MetricType type, std::string label_key,
                                             std::function<LabelledSamples()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FamilyFor(
      name, help, type == MetricType::kCounter ? Kind::kCallbackCounter : Kind::kCallbackGauge);
  family.label_key = std::move(label_key);
  family.samples = std::move(fn);
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples(const Family& family) {
  std::vector<Sample> out;
  if (family.samples) {
    for (auto& [label, value] : family.samples()) {
      MetricLabels labels = {{family.label_key, std::move(label)}};
      std::string label_string = RenderLabelString(labels);
      out.push_back({std::move(label_string), std::move(labels), value});
    }
  }
  for (const auto& [label_string, series] : family.series) {
    const int64_t value = series.counter ? series.counter->value()
                          : series.gauge ? series.gauge->value()
                                         : series.callback();
    out.push_back({label_string, series.labels, value});
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family.help + "\n";
    const bool counter = family.kind == Kind::kCounter || family.kind == Kind::kCallbackCounter;
    out += "# TYPE " + name + " " +
           (family.kind == Kind::kHistogram ? "histogram" : counter ? "counter" : "gauge") + "\n";
    if (family.kind != Kind::kHistogram) {
      for (const Sample& sample : Samples(family)) {
        out += name + sample.label_string + " " + std::to_string(sample.value) + "\n";
      }
      continue;
    }
    for (const auto& [label_string, series] : family.series) {
      const Histogram& h = *series.histogram;
      int64_t cumulative = 0;
      for (int i = 0; i < Histogram::kNumBounds; ++i) {
        cumulative += h.BucketCount(i);
        out += name + "_bucket" + WithLeLabel(label_string, kBoundLabels[static_cast<size_t>(i)]) +
               " " + std::to_string(cumulative) + "\n";
      }
      cumulative += h.BucketCount(Histogram::kNumBounds);
      out += name + "_bucket" + WithLeLabel(label_string, "+Inf") + " " +
             std::to_string(cumulative) + "\n";
      out += name + "_sum" + label_string + " " + FormatSeconds(h.sum_seconds()) + "\n";
      out += name + "_count" + label_string + " " + std::to_string(cumulative) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // `{"labels":{...},` — the head every series object shares.
  auto open_series = [](const MetricLabels& labels) {
    std::string out = "{\"labels\":{";
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonQuote(labels[i].first) + ":" + JsonQuote(labels[i].second);
    }
    return out + "},";
  };
  std::string out = "{";
  for (const auto& [name, family] : families_) {
    if (out.size() > 1) out += ',';
    out += JsonQuote(name) + ":[";
    const char* separator = "";
    if (family.kind != Kind::kHistogram) {
      for (const Sample& sample : Samples(family)) {
        out += separator + open_series(sample.labels) +
               "\"value\":" + std::to_string(sample.value) + "}";
        separator = ",";
      }
    } else {
      for (const auto& [label_string, series] : family.series) {
        const Histogram& h = *series.histogram;
        out += separator + open_series(series.labels);
        out += "\"count\":" + std::to_string(h.count());
        out += ",\"sum_seconds\":" + JsonNumber(h.sum_seconds());
        out += ",\"p50\":" + JsonNumber(h.Quantile(0.50));
        out += ",\"p90\":" + JsonNumber(h.Quantile(0.90));
        out += ",\"p99\":" + JsonNumber(h.Quantile(0.99));
        out += '}';
        separator = ",";
      }
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace reptile
