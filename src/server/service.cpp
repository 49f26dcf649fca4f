#include "server/service.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "api/dataset_snapshot.h"
#include "data/csv.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_ring.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "server/json.h"
#include "version/append.h"
#include "version/version.h"

namespace reptile {
namespace {

// ---- Strict JSON -> request mapping helpers --------------------------------
// Every helper reports failures as kInvalidArgument naming the offending
// field ("complaints[2].where[0].column must be a string, got number"), which
// the error path renders as HTTP 400.

Status WrongType(const std::string& context, const char* expected, const JsonValue& actual) {
  return Status::InvalidArgument(context + " must be " + expected + ", got " +
                                 actual.KindName());
}

/// Rejects unknown object keys so typos ("topk") fail loudly instead of
/// being silently ignored.
Status CheckKnownKeys(const JsonValue& object, const std::string& context,
                      std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : object.object_items()) {
    bool known = false;
    for (std::string_view name : allowed) {
      if (key == name) known = true;
    }
    if (!known) {
      std::string expected;
      for (std::string_view name : allowed) {
        if (!expected.empty()) expected += ", ";
        expected += name;
      }
      return Status::InvalidArgument("unknown field \"" + key + "\" in " + context +
                                     " (expected one of: " + expected + ")");
    }
  }
  return Status::Ok();
}

/// The preamble every JSON route shares: the body must parse, be an object,
/// and carry only `keys`. With a trace, the JSON parse alone is the "parse"
/// span.
Result<JsonValue> ParseObjectBody(const std::string& body,
                                  std::initializer_list<std::string_view> keys,
                                  TraceContext* trace = nullptr) {
  Result<JsonValue> parsed = [&] {
    ScopedSpan parse_span(trace, "parse");
    return ParseJson(body);
  }();
  if (!parsed.ok()) return parsed;
  if (!parsed->is_object()) return WrongType("request body", "an object", *parsed);
  REPTILE_RETURN_IF_ERROR(CheckKnownKeys(*parsed, "request body", keys));
  return parsed;
}

Result<std::string> StringField(const JsonValue& object, const std::string& context,
                                const std::string& key, bool required,
                                std::string default_value = std::string()) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    if (required) {
      return Status::InvalidArgument(context + " is missing required field \"" + key + "\"");
    }
    return default_value;
  }
  if (!value->is_string()) return WrongType(context + "." + key, "a string", *value);
  return value->string_value();
}

Result<int> IntField(const JsonValue& object, const std::string& context,
                     const std::string& key, int default_value) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return default_value;
  if (!value->IsInteger()) return WrongType(context + "." + key, "an integer", *value);
  int64_t n = value->IntValue();
  if (n < -2147483648LL || n > 2147483647LL) {
    return Status::InvalidArgument(context + "." + key + " is out of range");
  }
  return static_cast<int>(n);
}

Result<bool> BoolField(const JsonValue& object, const std::string& context,
                       const std::string& key, bool default_value) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return default_value;
  if (!value->is_bool()) return WrongType(context + "." + key, "a boolean", *value);
  return value->bool_value();
}

Result<std::vector<std::string>> StringListField(const JsonValue& object,
                                                 const std::string& context,
                                                 const std::string& key, bool required) {
  std::vector<std::string> out;
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    if (required) {
      return Status::InvalidArgument(context + " is missing required field \"" + key + "\"");
    }
    return out;
  }
  if (!value->is_array()) return WrongType(context + "." + key, "an array", *value);
  const std::vector<JsonValue>& items = value->array_items();
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].is_string()) {
      return WrongType(context + "." + key + "[" + std::to_string(i) + "]", "a string",
                       items[i]);
    }
    out.push_back(items[i].string_value());
  }
  return out;
}

Result<std::vector<NamedPredicate>> ParseWhere(const JsonValue& object,
                                               const std::string& context) {
  std::vector<NamedPredicate> where;
  const JsonValue* value = object.Find("where");
  if (value == nullptr) return where;
  if (!value->is_array()) return WrongType(context + ".where", "an array", *value);
  const std::vector<JsonValue>& items = value->array_items();
  for (size_t i = 0; i < items.size(); ++i) {
    std::string item_context = context + ".where[" + std::to_string(i) + "]";
    if (!items[i].is_object()) return WrongType(item_context, "an object", items[i]);
    REPTILE_RETURN_IF_ERROR(CheckKnownKeys(items[i], item_context, {"column", "value"}));
    Result<std::string> column = StringField(items[i], item_context, "column", true);
    if (!column.ok()) return column.status();
    Result<std::string> pred_value = StringField(items[i], item_context, "value", true);
    if (!pred_value.ok()) return pred_value.status();
    where.push_back(NamedPredicate{std::move(*column), std::move(*pred_value)});
  }
  return where;
}

Result<ComplaintSpec> ParseComplaintSpec(const JsonValue& value, const std::string& context) {
  if (!value.is_object()) return WrongType(context, "an object", value);
  REPTILE_RETURN_IF_ERROR(CheckKnownKeys(
      value, context, {"aggregate", "measure", "direction", "target", "where"}));
  ComplaintSpec spec;
  Result<std::string> aggregate = StringField(value, context, "aggregate", true);
  if (!aggregate.ok()) return aggregate.status();
  spec.aggregate = std::move(*aggregate);
  Result<std::string> measure = StringField(value, context, "measure", false);
  if (!measure.ok()) return measure.status();
  spec.measure = std::move(*measure);
  Result<std::string> direction = StringField(value, context, "direction", false, "too_high");
  if (!direction.ok()) return direction.status();
  spec.direction = std::move(*direction);
  if (const JsonValue* target = value.Find("target")) {
    if (!target->is_number()) return WrongType(context + ".target", "a number", *target);
    spec.target = target->number_value();
  }
  Result<std::vector<NamedPredicate>> where = ParseWhere(value, context);
  if (!where.ok()) return where.status();
  spec.where = std::move(*where);
  return spec;
}

/// A {"hierarchy name": depth} object (session restore).
Result<std::map<std::string, int>> ParseCommittedMap(const JsonValue& body,
                                                     const std::string& context) {
  std::map<std::string, int> committed;
  const JsonValue* value = body.Find("committed");
  if (value == nullptr) return committed;
  if (!value->is_object()) return WrongType(context + ".committed", "an object", *value);
  for (const auto& [name, depth] : value->object_items()) {
    // Same validation and messages as IntField, on the value already in hand
    // (an IntField call would linearly re-find each key).
    if (!depth.IsInteger()) {
      return WrongType(context + ".committed." + name, "an integer", depth);
    }
    int64_t n = depth.IntValue();
    if (n < -2147483648LL || n > 2147483647LL) {
      return Status::InvalidArgument(context + ".committed." + name + " is out of range");
    }
    committed[name] = static_cast<int>(n);
  }
  return committed;
}

/// A JSON `options.model` object mapped to a complete ModelSpec: omitted
/// fields take the ModelSpec defaults (NOT the session's values — a per-call
/// model replaces the session's configuration wholesale; see
/// BatchOptions::model). Range validation happens in the plan stage
/// (Session::RecommendAll -> Engine::ValidateModelSpec); here only names,
/// types and unknown fields are policed.
Result<ModelSpec> ParseModelSpec(const JsonValue& value, const std::string& context) {
  if (!value.is_object()) return WrongType(context, "an object", value);
  REPTILE_RETURN_IF_ERROR(CheckKnownKeys(value, context,
                                         {"kind", "backend", "random_effects", "em_iterations",
                                          "em_tolerance", "fit_cache", "extra_repair_stats"}));
  ModelSpec spec;
  Result<std::string> kind =
      StringField(value, context, "kind", false, ModelSpec::KindName(spec.kind));
  if (!kind.ok()) return kind.status();
  std::optional<ModelSpec::Kind> parsed_kind = ModelSpec::ParseKind(*kind);
  if (!parsed_kind.has_value()) {
    return Status::InvalidArgument("unknown " + context + ".kind \"" + *kind +
                                   "\" (expected one of: multilevel, linear)");
  }
  spec.kind = *parsed_kind;

  Result<std::string> backend =
      StringField(value, context, "backend", false, ModelSpec::BackendName(spec.backend));
  if (!backend.ok()) return backend.status();
  std::optional<ModelSpec::Backend> parsed_backend = ModelSpec::ParseBackend(*backend);
  if (!parsed_backend.has_value()) {
    return Status::InvalidArgument("unknown " + context + ".backend \"" + *backend +
                                   "\" (expected one of: auto, factorized, dense)");
  }
  spec.backend = *parsed_backend;

  Result<std::string> policy = StringField(value, context, "random_effects", false,
                                           ModelSpec::RandomPolicyName(spec.random_effects));
  if (!policy.ok()) return policy.status();
  std::optional<ModelSpec::RandomPolicy> parsed_policy = ModelSpec::ParseRandomPolicy(*policy);
  if (!parsed_policy.has_value()) {
    return Status::InvalidArgument("unknown " + context + ".random_effects \"" + *policy +
                                   "\" (expected one of: intercepts, all)");
  }
  spec.random_effects = *parsed_policy;

  Result<int> em_iterations = IntField(value, context, "em_iterations", spec.em_iterations);
  if (!em_iterations.ok()) return em_iterations.status();
  spec.em_iterations = *em_iterations;

  if (const JsonValue* tolerance = value.Find("em_tolerance")) {
    if (!tolerance->is_number()) {
      return WrongType(context + ".em_tolerance", "a number", *tolerance);
    }
    spec.em_tolerance = tolerance->number_value();
  }

  Result<bool> fit_cache = BoolField(value, context, "fit_cache", spec.fit_cache);
  if (!fit_cache.ok()) return fit_cache.status();
  spec.fit_cache = *fit_cache;

  if (const JsonValue* extras = value.Find("extra_repair_stats")) {
    if (!extras->is_array()) {
      return WrongType(context + ".extra_repair_stats", "an array", *extras);
    }
    const std::vector<JsonValue>& items = extras->array_items();
    for (size_t i = 0; i < items.size(); ++i) {
      std::string item_context = context + ".extra_repair_stats[" + std::to_string(i) + "]";
      if (!items[i].is_string()) return WrongType(item_context, "a string", items[i]);
      std::optional<AggFn> fn = ParseAggFn(items[i].string_value());
      if (!fn.has_value()) {
        return Status::InvalidArgument("unknown extra repair statistic \"" +
                                       items[i].string_value() + "\" in " + item_context +
                                       " (expected one of count, sum, mean, std, var)");
      }
      spec.extra_repair_stats.push_back(*fn);
    }
  }
  return spec;
}

/// The wire-level per-call options: the api BatchOptions plus the one
/// serving-only knob (zero_timings).
struct WireOptions {
  BatchOptions batch;
  bool zero_timings = false;
};

Result<WireOptions> ParseOptions(const JsonValue& body) {
  WireOptions options;
  const JsonValue* value = body.Find("options");
  if (value == nullptr) return options;
  const std::string context = "options";
  if (!value->is_object()) return WrongType(context, "an object", *value);
  REPTILE_RETURN_IF_ERROR(
      CheckKnownKeys(*value, context, {"threads", "top_k", "model", "zero_timings"}));
  if (const JsonValue* model = value->Find("model")) {
    Result<ModelSpec> spec = ParseModelSpec(*model, context + ".model");
    if (!spec.ok()) return spec.status();
    options.batch.model = std::move(*spec);
  }
  Result<int> threads = IntField(*value, context, "threads", 0);
  if (!threads.ok()) return threads.status();
  options.batch.num_threads = *threads;
  Result<int> top_k = IntField(*value, context, "top_k", 0);
  if (!top_k.ok()) return top_k.status();
  options.batch.top_k = *top_k;
  Result<bool> zero_timings = BoolField(*value, context, "zero_timings", false);
  if (!zero_timings.ok()) return zero_timings.status();
  options.zero_timings = *zero_timings;
  return options;
}

// zero_timings zeroes every scheduling- AND cache-state-dependent field —
// timings plus the fit counters (a warm call trains 0 models where a cold
// one trained N) — so cold and cache-warm responses to one request are
// byte-identical.
void ZeroTimings(ExploreResponse* response) {
  for (HierarchyResponse& candidate : response->candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
}

void ZeroTimings(BatchExploreResponse* batch) {
  batch->train_seconds = 0.0;
  batch->wall_seconds = 0.0;
  batch->models_trained = 0;
  batch->fit_cache_hits = 0;
  for (ExploreResponse& response : batch->responses) ZeroTimings(&response);
}

HttpResponse MethodNotAllowed(const std::string& allow) {
  HttpResponse response = HttpResponse::Json(
      405,
      "{\"error\":{\"code\":\"METHOD_NOT_ALLOWED\",\"http\":405,\"message\":"
      "\"this route only accepts " +
          allow + "\"}}");
  response.extra_headers.emplace_back("Allow", allow);
  return response;
}

// ---- Auth + streaming-upload helpers ---------------------------------------

/// The 401 envelope. Not routed through ErrorResponse: StatusCode has no
/// unauthenticated member (nothing inside the engine fails that way), and
/// growing the enum for a transport-only concern would force every switch
/// over it to handle a code the core never produces.
HttpResponse UnauthorizedResponse() {
  HttpResponse response = HttpResponse::Json(
      401,
      "{\"error\":{\"code\":\"UNAUTHENTICATED\",\"http\":401,\"message\":"
      "\"this route requires a bearer token (Authorization: Bearer <token>)\"}}");
  response.extra_headers.emplace_back("WWW-Authenticate", "Bearer");
  return response;
}

/// True when `path` matches `pattern`, whose "{...}" (if any) stands for a
/// non-empty segment; fills `param` with that segment on a match.
bool MatchPattern(std::string_view pattern, std::string_view path, std::string* param) {
  const size_t open = pattern.find('{');
  if (open == std::string_view::npos) return path == pattern;
  const std::string_view prefix = pattern.substr(0, open);
  const std::string_view suffix = pattern.substr(pattern.find('}') + 1);
  if (path.size() <= prefix.size() + suffix.size() || !path.starts_with(prefix) ||
      !path.ends_with(suffix)) {
    return false;
  }
  param->assign(path.substr(prefix.size(), path.size() - prefix.size() - suffix.size()));
  return true;
}

/// True when the Authorization header is the Bearer scheme carrying exactly
/// `token` (scheme case-insensitive per RFC 7235; token bytes exact).
bool BearerTokenMatches(const HttpRequest& request, const std::string& token) {
  const std::string* value = request.FindHeader("authorization");
  if (value == nullptr) return false;
  constexpr std::string_view kScheme = "bearer ";
  if (value->size() != kScheme.size() + token.size()) return false;
  for (size_t i = 0; i < kScheme.size(); ++i) {
    char c = (*value)[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + ('a' - 'A'));
    if (c != kScheme[i]) return false;
  }
  return value->compare(kScheme.size(), std::string::npos, token) == 0;
}

/// Percent-decodes a query-string component ('+' is a space). Malformed
/// escapes pass through verbatim — the metadata validation downstream gives
/// a more useful error than a generic decode failure would.
std::string PercentDecode(std::string_view in) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out += ' ';
    } else if (in[i] == '%' && i + 2 < in.size() && hex(in[i + 1]) >= 0 &&
               hex(in[i + 2]) >= 0) {
      out += static_cast<char>(hex(in[i + 1]) * 16 + hex(in[i + 2]));
      i += 2;
    } else {
      out += in[i];
    }
  }
  return out;
}

/// Splits "a=1&b=two" into decoded (key, value) pairs, preserving order and
/// duplicates (the "hierarchy" key repeats by design).
std::vector<std::pair<std::string, std::string>> ParseQuery(std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  size_t begin = 0;
  while (begin < query.size()) {
    size_t end = query.find('&', begin);
    if (end == std::string_view::npos) end = query.size();
    std::string_view item = query.substr(begin, end - begin);
    if (!item.empty()) {
      size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        params.emplace_back(PercentDecode(item), std::string());
      } else {
        params.emplace_back(PercentDecode(item.substr(0, eq)),
                            PercentDecode(item.substr(eq + 1)));
      }
    }
    begin = end + 1;
  }
  return params;
}

/// Sink returned by StartStreamingBody when the request is rejected before
/// any body byte is read (bad metadata, missing token): refuses the first
/// chunk so the front end discards the upload and writes the stored error.
class RejectingSink final : public HttpBodySink {
 public:
  explicit RejectingSink(HttpResponse response) : response_(std::move(response)) {}
  bool Append(std::string_view) override { return false; }
  HttpResponse Finish(bool) override { return std::move(response_); }

 private:
  HttpResponse response_;
};

std::unique_ptr<HttpBodySink> Reject(const Status& status) {
  return std::make_unique<RejectingSink>(ReptileService::ErrorResponse(status));
}

/// True when the Content-Type is text/csv, parameters allowed.
bool IsCsvBody(const HttpRequest& head) {
  const std::string* content_type = head.FindHeader("content-type");
  if (content_type == nullptr) return false;
  constexpr std::string_view kCsv = "text/csv";
  std::string_view ct(*content_type);
  if (ct.size() < kCsv.size()) return false;
  for (size_t i = 0; i < kCsv.size(); ++i) {
    char c = ct[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + ('a' - 'A'));
    if (c != kCsv[i]) return false;
  }
  // Some other text/csv* type is buffered normally.
  return ct.size() == kCsv.size() || ct[kCsv.size()] == ';' || ct[kCsv.size()] == ' ' ||
         ct[kCsv.size()] == '\t';
}

}  // namespace

std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> items;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    if (end > begin) items.push_back(value.substr(begin, end - begin));
    begin = end + 1;
  }
  return items;
}

/// Streamed POST /v1/datasets body consumer: every chunk goes straight into
/// CsvStreamParser, so the upload is never materialized as one string;
/// Finish() builds the Dataset and registers it exactly as the buffered JSON
/// path does, returning the same 201 body shape.
class DatasetUploadSink final : public HttpBodySink {
 public:
  DatasetUploadSink(ReptileService* service, std::string name, CsvSpec spec,
                    std::vector<HierarchySchema> hierarchies,
                    std::vector<std::string> commits)
      : service_(service),
        name_(std::move(name)),
        parser_(std::move(spec), "uploaded csv"),
        hierarchies_(std::move(hierarchies)),
        commits_(std::move(commits)) {}

  bool Append(std::string_view chunk) override { return parser_.Feed(chunk); }

  HttpResponse Finish(bool complete) override {
    if (!parser_.status().ok()) {
      return ReptileService::ErrorResponse(parser_.status());
    }
    if (!complete) {
      return ReptileService::ErrorResponse(Status::InvalidArgument(
          "the connection closed before the declared csv body was received"));
    }
    Result<Table> table = parser_.Finish();
    if (!table.ok()) return ReptileService::ErrorResponse(table.status());
    size_t rows = table->num_rows();
    Result<Dataset> dataset =
        Dataset::Make(std::move(table).value(), std::move(hierarchies_));
    if (!dataset.ok()) return ReptileService::ErrorResponse(dataset.status());
    Status added = service_->AddDataset(name_, std::move(dataset).value(), commits_);
    if (!added.ok()) return ReptileService::ErrorResponse(added);
    std::string body =
        "{\"dataset\":" + JsonQuote(name_) + ",\"rows\":" + std::to_string(rows) +
        ",\"session\":" + JsonQuote(ReptileService::DefaultSessionId(name_)) + "}";
    return HttpResponse::Json(201, std::move(body));
  }

 private:
  ReptileService* service_;
  std::string name_;
  CsvStreamParser parser_;
  std::vector<HierarchySchema> hierarchies_;
  std::vector<std::string> commits_;
};

/// Streamed POST /v1/datasets/{name}/rows body consumer. Unlike the upload
/// sink, the chunks are accumulated: the append path validates the header
/// and runs the dirty-subtree analysis against the parent over the complete
/// delta, and append deltas are small next to the datasets they extend.
/// Finish() runs the same AppendToDataset core as the JSON form.
class DatasetAppendSink final : public HttpBodySink {
 public:
  DatasetAppendSink(ReptileService* service, std::string name)
      : service_(service), name_(std::move(name)) {}

  bool Append(std::string_view chunk) override {
    body_.append(chunk.data(), chunk.size());
    return true;
  }

  HttpResponse Finish(bool complete) override {
    if (!complete) {
      return ReptileService::ErrorResponse(Status::InvalidArgument(
          "the connection closed before the declared csv body was received"));
    }
    Result<std::string> response = service_->AppendToDataset(name_, body_, "csv body");
    if (!response.ok()) return ReptileService::ErrorResponse(response.status());
    return HttpResponse::Json(201, std::move(response).value());
  }

 private:
  ReptileService* service_;
  std::string name_;
  std::string body_;
};

ReptileService::ReptileService(ServiceOptions options)
    : ReptileService(std::make_shared<DatasetRegistry>(), std::move(options)) {}

ReptileService::ReptileService(std::shared_ptr<DatasetRegistry> registry,
                               ServiceOptions options)
    : options_(std::move(options)),
      registry_(std::move(registry)),
      start_time_(std::chrono::steady_clock::now()),
      metrics_(std::make_unique<MetricsRegistry>()) {
  // Pre-create every per-request series so Handle() only dereferences cached
  // pointers — the registry mutex is never taken on the request path.
  request_latency_ = metrics_->GetHistogram(
      "reptile_http_request_duration_seconds",
      "End-to-end latency of one request through ReptileService::Handle");
  for (int code_class : {2, 3, 4, 5}) {
    requests_by_class_[code_class] = metrics_->GetCounter(
        "reptile_http_requests_total", "Requests handled, by status code class",
        {{"code", std::to_string(code_class) + "xx"}});
  }
  for (const char* stage : {"parse", "validate", "plan", "fit", "rank", "serialize"}) {
    stage_latency_[stage] = metrics_->GetHistogram(
        "reptile_request_stage_duration_seconds",
        "Latency of one stage of the recommend pipeline", {{"stage", stage}});
  }
  if (options_.debug_request_ring > 0) {
    request_ring_ = std::make_unique<RequestRing>(options_.debug_request_ring);
  }
  RegisterSeries();
}

ReptileService::~ReptileService() = default;

void ReptileService::RegisterSeries() {
  // Each callback runs under the metrics mutex at scrape time, reads through
  // `this` (the registry dies with the service) and looks datasets up per
  // scrape, so no callback holds a dataset alive.
  metrics_->RegisterCallback("reptile_datasets", "Registered datasets", MetricType::kGauge,
                             [this] { return registry_->size(); });
  metrics_->RegisterCallback("reptile_sessions", "Live sessions (defaults included)",
                             MetricType::kGauge, [this] {
                               std::shared_lock<std::shared_mutex> lock(mu_);
                               return static_cast<int64_t>(sessions_.size());
                             });
  metrics_->RegisterCallback("reptile_sessions_evicted_total",
                             "Sessions evicted by the idle TTL", MetricType::kCounter,
                             [this] { return sessions_evicted_.load(); });

  // The three caches' counters, summed over every live dataset's head
  // version. Each dataset's counters are monotonic, but deleting a dataset
  // (or appending, for the per-version group-statistics cache) drops its
  // contribution, so the sums are gauges. A healthy warm deployment shows
  // model-cache and group-statistics hits climbing while fits and
  // statistics misses stay flat.
  static constexpr std::pair<const char*, int64_t (PreparedDataset::*)() const> kCacheSums[] = {
      {"aggregate_cache_entries", &PreparedDataset::cache_entries},
      {"aggregate_cache_hits", &PreparedDataset::cache_hits},
      {"aggregate_cache_misses", &PreparedDataset::cache_misses},
      {"aggregate_cache_bytes", &PreparedDataset::cache_bytes},
      {"aggregate_cache_evictions", &PreparedDataset::cache_evictions},
      {"model_cache_entries", &PreparedDataset::model_cache_entries},
      {"model_cache_hits", &PreparedDataset::model_cache_hits},
      {"model_cache_misses", &PreparedDataset::model_cache_misses},
      {"model_cache_fits", &PreparedDataset::model_cache_fits},
      {"model_cache_bytes", &PreparedDataset::model_cache_bytes},
      {"model_cache_evictions", &PreparedDataset::model_cache_evictions},
      {"group_stats_cache_entries", &PreparedDataset::group_stats_cache_entries},
      {"group_stats_cache_hits", &PreparedDataset::group_stats_cache_hits},
      {"group_stats_cache_misses", &PreparedDataset::group_stats_cache_misses},
      {"group_stats_cache_bytes", &PreparedDataset::group_stats_cache_bytes},
      {"group_stats_cache_evictions", &PreparedDataset::group_stats_cache_evictions},
  };
  for (const auto& [name, read] : kCacheSums) {
    metrics_->RegisterCallback(
        std::string("reptile_") + name, std::string(name) + " summed over live datasets",
        MetricType::kGauge, [this, read] {
          int64_t total = 0;
          for (const std::string& dataset : registry_->names()) {
            Result<DatasetHandle> handle = registry_->Find(dataset);
            if (handle.ok()) total += ((**handle).*read)();  // else removed since names()
          }
          return total;
        });
  }

  // Version-chain state: live version count and head id per chain, plus the
  // registry-wide GC and dirty-subtree invalidation counters.
  auto per_chain = [this](int64_t (*value)(const DatasetVersionSummary&)) {
    return [this, value] {
      LabelledSamples samples;
      for (const DatasetVersionSummary& summary : registry_->VersionSummaries()) {
        samples.emplace_back(summary.name, value(summary));
      }
      return samples;
    };
  };
  metrics_->RegisterCallbackFamily(
      "reptile_dataset_versions", "Live (pinned or head) versions per dataset chain",
      MetricType::kGauge, "dataset", per_chain([](const DatasetVersionSummary& summary) {
        return static_cast<int64_t>(summary.live.size());
      }));
  metrics_->RegisterCallbackFamily(
      "reptile_dataset_head_version", "Head version id per dataset chain", MetricType::kGauge,
      "dataset", per_chain([](const DatasetVersionSummary& summary) { return summary.head; }));
  metrics_->RegisterCallback("reptile_versions_gc_total",
                             "Unpinned ancestor versions retired by the version GC",
                             MetricType::kCounter, [this] { return registry_->versions_gc(); });
  metrics_->RegisterCallback(
      "reptile_cache_invalidations_total",
      "Aggregate-cache (hierarchy, depth) entries invalidated by dirty-subtree appends",
      MetricType::kCounter, [this] { return registry_->cache_invalidations(); });

  metrics_->RegisterCallback("reptile_shared_pool_queue_depth",
                             "Tasks queued or running on the process-wide shared compute pool.",
                             MetricType::kGauge, [] { return SharedThreadPoolPendingTasks(); });
}

int64_t ReptileService::NowNs() const {
  std::chrono::steady_clock::time_point now =
      options_.clock != nullptr ? options_.clock() : std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch())
      .count();
}

void ReptileService::EvictIdleSessions() {
  if (options_.session_ttl_seconds <= 0) return;
  const int64_t ttl_ns = static_cast<int64_t>(options_.session_ttl_seconds) * 1000000000LL;
  const int64_t now = NowNs();
  // Throttle: expiry has ttl-granularity anyway, so sweeping more than a few
  // times per TTL buys nothing — without this, every lookup on a busy server
  // would pay an O(sessions) scan.
  int64_t last_sweep = last_sweep_ns_.load(std::memory_order_relaxed);
  if (now - last_sweep < ttl_ns / 8 ||
      !last_sweep_ns_.compare_exchange_strong(last_sweep, now,
                                              std::memory_order_relaxed)) {
    return;
  }
  {
    // Cheap shared-lock scan first: the common case is nothing to evict, and
    // lookups should not pay for an exclusive lock then.
    std::shared_lock<std::shared_mutex> lock(mu_);
    bool any_expired = false;
    for (const auto& [id, entry] : sessions_) {
      if (!entry->is_default &&
          now - entry->last_used_ns.load(std::memory_order_relaxed) > ttl_ns) {
        any_expired = true;
        break;
      }
    }
    if (!any_expired) return;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    SessionEntry& entry = *it->second;
    if (!entry.is_default &&
        now - entry.last_used_ns.load(std::memory_order_relaxed) > ttl_ns) {
      // An in-flight request holds its own shared_ptr; the entry dies when
      // the last holder drops it.
      sessions_evicted_.fetch_add(1);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Status ReptileService::AddDataset(std::string name, Dataset dataset,
                                  const std::vector<std::string>& commits) {
  Result<DatasetHandle> handle = PreparedDataset::Prepare(std::move(dataset));
  if (!handle.ok()) return handle.status();
  return InstallPrepared(name, std::move(handle).value(), commits);
}

Status ReptileService::AddPreparedDataset(const std::string& name, DatasetHandle handle,
                                          const std::vector<std::string>& commits) {
  if (handle == nullptr) return Status::InvalidArgument("null dataset handle");
  return InstallPrepared(name, std::move(handle), commits);
}

Status ReptileService::InstallPrepared(const std::string& name, DatasetHandle handle,
                                       const std::vector<std::string>& commits) {
  // Validate EVERYTHING — default session, commits — before the dataset
  // becomes visible anywhere. Publishing first and rolling back on failure
  // would let a concurrent client bind a session to a dataset whose
  // registration is about to be undone.
  if (options_.cache_budget_bytes > 0) {
    handle->SetCacheBudgetBytes(options_.cache_budget_bytes);
  }
  Result<Session> session = Session::Open(handle, options_.session_defaults);
  if (!session.ok()) return session.status();
  for (const std::string& hierarchy : commits) {
    REPTILE_RETURN_IF_ERROR(session->Commit(hierarchy));
  }
  // One critical section for the registry entry AND the default session:
  // no observer may see the dataset listed but its alias 404ing (or stale).
  // The registry's lock nests inside mu_ here; registry methods never wait
  // on mu_, so the order cannot cycle.
  std::string id = DefaultSessionId(name);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (options_.max_datasets > 0 && registry_->size() >= options_.max_datasets &&
      !registry_->Contains(name)) {
    return Status::FailedPrecondition(
        "dataset limit reached (" + std::to_string(options_.max_datasets) +
        "); delete datasets or raise --max-datasets");
  }
  Result<DatasetHandle> registered = registry_->AddPrepared(name, std::move(handle));
  if (!registered.ok()) return registered.status();
  // Assign (not emplace): when a name is re-registered after RemoveDataset
  // raced with direct registry() use, a stale default session must be
  // replaced, never silently kept serving the old dataset.
  sessions_[id] = std::make_shared<SessionEntry>(id, name, (*registered)->version(),
                                                 /*is_default=*/true,
                                                 std::move(session).value(), NowNs());
  return Status::Ok();
}

Status ReptileService::RemoveDataset(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  REPTILE_RETURN_IF_ERROR(registry_->Remove(name));
  // Drop every session over the dataset — the default (otherwise it would
  // serve the alias forever, pinning the dataset: undeletable and
  // TTL-exempt) and per-client sessions (their ids would dangle). In-flight
  // requests hold their own EntryPtr and DatasetHandle, so they finish.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->dataset == name) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

std::string ReptileService::DefaultSessionId(const std::string& dataset) {
  return "default:" + dataset;
}

Result<ReptileService::EntryPtr> ReptileService::CreateSessionEntry(
    const std::string& dataset, const std::map<std::string, int>& committed,
    const ExploreRequest* options) {
  EvictIdleSessions();
  Result<DatasetHandle> handle = registry_->Find(dataset);
  if (!handle.ok()) return handle.status();
  Result<Session> session =
      Session::Open(*handle, options != nullptr ? *options : options_.session_defaults);
  if (!session.ok()) return session.status();
  Status restored = session->RestoreCommitted(committed);
  if (!restored.ok()) return restored;
  // The entry stores the chain's BASE name (a "@vK" pin stripped): the
  // RemoveDataset sweep matches sessions by chain name, and a session pinned
  // to any version must die with its chain. The pin itself survives in the
  // handle — and in dataset_version below.
  std::string base = dataset;
  if (!registry_->Contains(dataset)) {
    std::string parsed_base;
    int64_t pinned = 0;
    if (ParseVersionedName(dataset, &parsed_base, &pinned) &&
        registry_->Contains(parsed_base)) {
      base = parsed_base;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check under the lock, by HANDLE IDENTITY not name: RemoveDataset
  // sweeps sessions_ while holding mu_, so a dataset deleted (or deleted and
  // re-registered under the same name with different data) between the Find
  // above and here must not gain a session the sweep never saw — it would
  // serve the old dataset while the listing describes the new one.
  Result<DatasetHandle> current = registry_->Find(dataset);
  if (!current.ok() || current->get() != handle->get()) {
    return Status::NotFound("no dataset named '" + dataset + "' is loaded on this server");
  }
  if (options_.max_sessions > 0) {
    int64_t client_sessions = 0;
    for (const auto& [existing_id, entry] : sessions_) {
      if (!entry->is_default) ++client_sessions;
    }
    if (client_sessions >= options_.max_sessions) {
      return Status::FailedPrecondition(
          "session limit reached (" + std::to_string(options_.max_sessions) +
          "); delete idle sessions or raise --max-sessions");
    }
  }
  std::string id = "s-" + std::to_string(next_session_++);
  EntryPtr entry = std::make_shared<SessionEntry>(id, std::move(base), (*handle)->version(),
                                                  /*is_default=*/false,
                                                  std::move(session).value(), NowNs());
  sessions_.emplace(std::move(id), entry);
  return entry;
}

Result<std::string> ReptileService::CreateSession(const std::string& dataset,
                                                  const std::map<std::string, int>& committed,
                                                  const ExploreRequest* options) {
  Result<EntryPtr> entry = CreateSessionEntry(dataset, committed, options);
  if (!entry.ok()) return entry.status();
  return (*entry)->id;
}

Status ReptileService::DeleteSession(const std::string& id) {
  EvictIdleSessions();
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session with id '" + id + "'");
  }
  if (it->second->is_default) {
    return Status::InvalidArgument("session '" + id +
                                   "' is the dataset's default session and cannot be deleted");
  }
  sessions_.erase(it);
  return Status::Ok();
}

int ReptileService::HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
      return 500;
    case StatusCode::kDeadlineExceeded:
      return 504;
  }
  return 500;
}

HttpResponse ReptileService::ErrorResponse(const Status& status) {
  int http = HttpStatusFor(status.code());
  std::string body = "{\"error\":{\"code\":\"" + std::string(StatusCodeName(status.code())) +
                     "\",\"http\":" + std::to_string(http) +
                     ",\"message\":" + JsonQuote(status.message()) + "}}";
  return HttpResponse::Json(http, std::move(body));
}

std::vector<std::string> ReptileService::dataset_names() const { return registry_->names(); }

std::vector<std::string> ReptileService::session_ids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) ids.push_back(id);
  return ids;
}

Result<ReptileService::EntryPtr> ReptileService::FindSession(const std::string& id) {
  EvictIdleSessions();
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session with id '" + id + "'");
  }
  it->second->last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return it->second;
}

Result<ReptileService::EntryPtr> ReptileService::FindDefaultSession(
    const std::string& dataset) {
  EvictIdleSessions();
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = sessions_.find(DefaultSessionId(dataset));
  if (it == sessions_.end() || !it->second->is_default || it->second->dataset != dataset) {
    return Status::NotFound("no dataset named '" + dataset + "' is loaded on this server");
  }
  it->second->last_used_ns.store(NowNs(), std::memory_order_relaxed);
  return it->second;
}

Result<ReptileService::EntryPtr> ReptileService::ResolveTarget(const JsonValue& body) {
  const JsonValue* session = body.Find("session");
  const JsonValue* dataset = body.Find("dataset");
  if (session != nullptr && dataset != nullptr) {
    return Status::InvalidArgument(
        "request body must address exactly one of \"session\" or \"dataset\", not both");
  }
  if (session == nullptr && dataset == nullptr) {
    return Status::InvalidArgument(
        "request body is missing required field \"session\" (or the deprecated "
        "\"dataset\")");
  }
  if (session != nullptr) {
    if (!session->is_string()) return WrongType("session", "a string", *session);
    return FindSession(session->string_value());
  }
  if (!dataset->is_string()) return WrongType("dataset", "a string", *dataset);
  return FindDefaultSession(dataset->string_value());
}

std::string ReptileService::SessionSnapshotJson(SessionEntry& entry) {
  std::map<std::string, int> committed;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    committed = entry.session.CommittedDepths();
  }
  std::string out = "{\"session\":" + JsonQuote(entry.id) +
                    ",\"dataset\":" + JsonQuote(entry.dataset) +
                    ",\"dataset_version\":" + std::to_string(entry.dataset_version) +
                    ",\"default\":" + (entry.is_default ? "true" : "false") +
                    ",\"committed\":{";
  bool first = true;
  for (const auto& [name, depth] : committed) {
    if (!first) out += ',';
    first = false;
    out += JsonQuote(name) + ":" + std::to_string(depth);
  }
  out += "}}";
  return out;
}

const ReptileService::Route* ReptileService::MatchRoute(const HttpRequest& request,
                                                       std::string* param,
                                                       std::string* allow) const {
  std::string_view matched;  // the first pattern the path matches
  for (const Route& route : Routes()) {
    if (route.enabled != nullptr && !route.enabled(options_)) continue;
    if (matched.empty()) {
      if (!MatchPattern(route.pattern, request.path, param)) continue;
      matched = route.pattern;
    } else if (matched != route.pattern) {
      continue;
    }
    if (request.method == route.method) return &route;
    if (allow != nullptr) *allow += (allow->empty() ? "" : ", ") + std::string(route.method);
  }
  return nullptr;
}

bool ReptileService::CheckAuth(const Route& route, const HttpRequest& request) const {
  return !route.gated || options_.auth_token.empty() ||
         BearerTokenMatches(request, options_.auth_token);
}

std::unique_ptr<HttpBodySink> ReptileService::StartStreamingBody(const HttpRequest& head) {
  RouteArgs args{head, std::string(), nullptr};
  const Route* route = MatchRoute(head, &args.param, nullptr);
  if (route == nullptr || route->stream_csv == nullptr || !IsCsvBody(head)) return nullptr;
  // From here on the request IS a streamed upload: failures must be reported
  // through a sink (there is no buffered handler to fall back to), and the
  // sink rejects the body so the server never reads an upload it won't use.
  if (!CheckAuth(*route, head)) return std::make_unique<RejectingSink>(UnauthorizedResponse());
  return (this->*route->stream_csv)(args);
}

std::unique_ptr<HttpBodySink> ReptileService::StreamDatasetAppend(const RouteArgs& args) {
  // No query parameters: the dataset already defines the schema and the
  // separator, so anything here is caller confusion worth rejecting.
  if (!args.request.query.empty()) {
    return Reject(Status::InvalidArgument(
        "a streamed append takes no query parameters (the dataset already defines "
        "its columns and separator)"));
  }
  return std::make_unique<DatasetAppendSink>(this, args.param);
}

std::unique_ptr<HttpBodySink> ReptileService::StreamDatasetCreate(const RouteArgs& args) {
  std::string name;
  std::string separator = ",";
  CsvSpec spec;
  std::vector<HierarchySchema> hierarchies;
  std::vector<std::string> commits;
  bool saw_name = false;
  bool saw_dimensions = false;
  for (const auto& [key, value] : ParseQuery(args.request.query)) {
    if (key == "name") {
      name = value;
      saw_name = true;
    } else if (key == "dimensions") {
      spec.dimension_columns = SplitCommaList(value);
      saw_dimensions = true;
    } else if (key == "measures") {
      spec.measure_columns = SplitCommaList(value);
    } else if (key == "separator") {
      separator = value;
    } else if (key == "commits") {
      commits = SplitCommaList(value);
    } else if (key == "hierarchy") {
      size_t colon = value.find(':');
      HierarchySchema schema;
      if (colon != std::string::npos) {
        schema.name = value.substr(0, colon);
        schema.attributes = SplitCommaList(value.substr(colon + 1));
      }
      if (schema.name.empty() || schema.attributes.empty()) {
        return Reject(Status::InvalidArgument(
            "query parameter \"hierarchy\" must look like name:attr1,attr2, got \"" +
            value + "\""));
      }
      hierarchies.push_back(std::move(schema));
    } else {
      return Reject(Status::InvalidArgument(
          "unknown query parameter \"" + key +
          "\" for a streamed dataset upload (expected one of: name, dimensions, "
          "measures, hierarchy, commits, separator)"));
    }
  }
  if (!saw_name || name.empty()) {
    return Reject(Status::InvalidArgument(
        "a streamed dataset upload needs a non-empty \"name\" query parameter"));
  }
  if (!saw_dimensions || spec.dimension_columns.empty()) {
    return Reject(Status::InvalidArgument(
        "a streamed dataset upload needs a \"dimensions\" query parameter "
        "(comma-separated column names)"));
  }
  if (separator.size() != 1) {
    return Reject(Status::InvalidArgument(
        "separator must be a single character, got \"" + separator + "\""));
  }
  spec.separator = separator[0];
  return std::make_unique<DatasetUploadSink>(this, std::move(name), std::move(spec),
                                             std::move(hierarchies), std::move(commits));
}

HttpResponse ReptileService::Handle(const HttpRequest& request) {
  // Mint the trace id — or adopt the client's, when it survives sanitizing —
  // before any routing, so even auth failures and 404s carry X-Request-Id.
  std::string trace_id;
  const std::string* supplied = request.FindHeader("x-request-id");
  if (supplied != nullptr && ValidTraceId(*supplied)) {
    trace_id = *supplied;
  } else {
    trace_id = MintTraceId();
  }
  TraceContext trace(std::move(trace_id));

  HttpResponse response = HandleInternal(request, &trace);
  const double total_seconds = trace.ElapsedSeconds();

  // Metrics first (always real durations — zero_timings governs rendered
  // output, never measurement): overall latency, the status-class counter,
  // and the per-stage histograms fed from this request's spans.
  request_latency_->Observe(total_seconds);
  auto code_it = requests_by_class_.find(response.status / 100);
  if (code_it != requests_by_class_.end()) code_it->second->Increment();
  std::vector<TraceSpan> spans = trace.Spans();
  for (const TraceSpan& span : spans) {
    auto stage_it = stage_latency_.find(span.name);
    if (stage_it != stage_latency_.end()) stage_it->second->Observe(span.duration_seconds);
  }

  // Stamp the response. Extra headers never participate in the differential
  // byte-identity tests (those compare status + body only), and with
  // zero_durations every Server-Timing dur renders as 0.
  response.extra_headers.emplace_back("X-Request-Id", trace.id());
  response.extra_headers.emplace_back("Server-Timing",
                                      ServerTimingHeader(trace, total_seconds));

  if (request_ring_ != nullptr) {
    RequestRecord record;
    record.trace_id = trace.id();
    record.method = request.method;
    record.path = request.path;
    record.http_status = response.status;
    record.duration_seconds = total_seconds;
    record.spans = spans;
    if (trace.zero_durations()) {
      // The debug ring obeys the same determinism contract as response
      // bodies: offsets and durations go to 0, span names stay.
      record.duration_seconds = 0.0;
      for (TraceSpan& span : record.spans) {
        span.start_seconds = 0.0;
        span.duration_seconds = 0.0;
      }
    }
    request_ring_->Add(std::move(record));
  }

  const double duration_ms = total_seconds * 1e3;
  const bool slow =
      options_.slow_request_ms > 0.0 && duration_ms >= options_.slow_request_ms;
  const LogLevel level = slow ? LogLevel::kWarn : LogLevel::kDebug;
  Logger& logger = Logger::Global();
  if (logger.Enabled(level)) {
    std::vector<LogField> fields;
    fields.push_back(LogField::Str("trace_id", trace.id()));
    fields.push_back(LogField::Str("method", request.method));
    fields.push_back(LogField::Str("path", request.path));
    fields.push_back(LogField::Int("status", response.status));
    fields.push_back(LogField::Num("duration_ms", duration_ms));
    if (slow && !spans.empty()) {
      std::string spans_json = "[";
      for (size_t i = 0; i < spans.size(); ++i) {
        if (i > 0) spans_json += ',';
        spans_json += "{\"name\":" + JsonQuote(spans[i].name) +
                      ",\"ms\":" + JsonNumber(spans[i].duration_seconds * 1e3) + "}";
      }
      spans_json += "]";
      fields.push_back(LogField::Raw("spans", std::move(spans_json)));
    }
    logger.Log(level, slow ? "slow_request" : "request", fields);
  }
  return response;
}

std::span<const ReptileService::Route> ReptileService::Routes() {
  using S = ReptileService;
  constexpr bool kGated = true, kOpen = false;
  static constexpr Route kRoutes[] = {
      {"GET", "/healthz", kOpen, nullptr, nullptr, &S::HandleHealthz},
      {"GET", "/metricsz", kOpen, nullptr, nullptr, &S::HandleMetricsz},
      // Opt-in (a 404 when off, so an exposed server shows no such route);
      // read-only, but request paths and ids are operational data.
      {"GET", "/v1/debug/requests", kGated,
       [](const ServiceOptions& o) { return o.debug_request_ring > 0; }, nullptr,
       &S::HandleDebugRequests},
      {"GET", "/v1/datasets", kOpen, nullptr, nullptr, &S::HandleDatasetList},
      {"POST", "/v1/datasets", kGated, nullptr, &S::StreamDatasetCreate,
       &S::HandleDatasetCreate},
      // Snapshot writes create server-side files, so they are gated too.
      {"POST", "/v1/datasets/{name}/snapshot", kGated, nullptr, nullptr,
       &S::HandleDatasetSnapshot},
      {"POST", "/v1/datasets/{name}/rows", kGated, nullptr, &S::StreamDatasetAppend,
       &S::HandleDatasetAppend},
      {"DELETE", "/v1/datasets/{name}", kGated, nullptr, nullptr, &S::HandleDatasetDelete},
      {"GET", "/v1/sessions", kOpen, nullptr, nullptr, &S::HandleSessionList},
      {"POST", "/v1/sessions", kGated, nullptr, nullptr, &S::HandleSessionCreate},
      {"GET", "/v1/sessions/{id}", kOpen, nullptr, nullptr, &S::HandleSessionGet},
      {"DELETE", "/v1/sessions/{id}", kGated, nullptr, nullptr, &S::HandleSessionDelete},
      {"POST", "/v1/recommend", kOpen, nullptr, nullptr, &S::HandleRecommend},
      {"POST", "/v1/recommend_batch", kOpen, nullptr, nullptr, &S::HandleRecommend},
      {"POST", "/v1/view", kOpen, nullptr, nullptr, &S::HandleView},
      {"POST", "/v1/commit", kGated, nullptr, nullptr, &S::HandleCommit},
  };
  return kRoutes;
}

HttpResponse ReptileService::HandleInternal(const HttpRequest& request,
                                            TraceContext* trace) {
  RouteArgs args{request, std::string(), trace};
  std::string allow;
  const Route* route = MatchRoute(request, &args.param, &allow);
  if (route == nullptr) {
    if (!allow.empty()) return MethodNotAllowed(allow);
    return ErrorResponse(Status::NotFound("no route matches " + request.path));
  }
  if (!CheckAuth(*route, request)) return UnauthorizedResponse();
  return (this->*route->handle)(args);
}

HttpResponse ReptileService::HandleHealthz(const RouteArgs&) {
  int64_t uptime = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - start_time_)
                       .count();
  // The version chains are lists of live ids, not number series, so they
  // ride here alone; every number is a "metrics" series.
  std::string body = "{\"status\":\"ok\",\"versions\":[";
  const char* separator = "";
  for (const DatasetVersionSummary& summary : registry_->VersionSummaries()) {
    body += separator;
    separator = ",";
    body += "{\"dataset\":" + JsonQuote(summary.name) +
            ",\"head\":" + std::to_string(summary.head) + ",\"live\":[";
    for (size_t i = 0; i < summary.live.size(); ++i) {
      if (i > 0) body += ',';
      body += std::to_string(summary.live[i]);
    }
    body += "]}";
  }
  body += "],\"uptime_seconds\":" + std::to_string(uptime) +
          ",\"pid\":" + std::to_string(static_cast<int64_t>(getpid())) +
          ",\"build\":" + BuildInfoJson() + ",\"metrics\":" + metrics_->RenderJson() + "}";
  return HttpResponse::Json(200, std::move(body));
}

HttpResponse ReptileService::HandleMetricsz(const RouteArgs&) {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_->RenderPrometheus();
  return response;
}

HttpResponse ReptileService::HandleDebugRequests(const RouteArgs&) {
  return HttpResponse::Json(200, request_ring_->ToJson());
}

HttpResponse ReptileService::HandleDatasetList(const RouteArgs&) {
  JsonValue root = JsonValue::Object();
  JsonValue datasets = JsonValue::Array();
  for (const std::string& name : registry_->names()) {
    Result<DatasetHandle> handle = registry_->Find(name);
    if (!handle.ok()) continue;  // removed between names() and Find()
    const Dataset& dataset = (*handle)->data();
    const Table& table = dataset.table();

    // Drill state comes from the dataset's default session (absent only when
    // the dataset was added to a shared registry behind this service's back).
    std::map<std::string, int> committed;
    bool have_session = false;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto entry_it = sessions_.find(DefaultSessionId(name));
      if (entry_it != sessions_.end() && entry_it->second->is_default) {
        EntryPtr entry = entry_it->second;
        lock.unlock();
        std::lock_guard<std::mutex> session_lock(entry->mu);
        committed = entry->session.CommittedDepths();
        have_session = true;
      }
    }

    JsonValue item = JsonValue::Object();
    item.mutable_object_items().emplace_back("name", JsonValue::String(name));
    item.mutable_object_items().emplace_back(
        "rows", JsonValue::Number(static_cast<double>(table.num_rows())));

    JsonValue columns = JsonValue::Array();
    for (int c = 0; c < table.num_columns(); ++c) {
      JsonValue column = JsonValue::Object();
      column.mutable_object_items().emplace_back("name",
                                                 JsonValue::String(table.column_name(c)));
      column.mutable_object_items().emplace_back(
          "kind", JsonValue::String(table.is_dimension(c) ? "dimension" : "measure"));
      columns.mutable_array_items().push_back(std::move(column));
    }
    item.mutable_object_items().emplace_back("columns", std::move(columns));

    JsonValue hierarchies = JsonValue::Array();
    for (int h = 0; h < dataset.num_hierarchies(); ++h) {
      const HierarchySchema& schema = dataset.hierarchy(h);
      JsonValue hierarchy = JsonValue::Object();
      hierarchy.mutable_object_items().emplace_back("name", JsonValue::String(schema.name));
      JsonValue attributes = JsonValue::Array();
      for (const std::string& attr : schema.attributes) {
        attributes.mutable_array_items().push_back(JsonValue::String(attr));
      }
      hierarchy.mutable_object_items().emplace_back("attributes", std::move(attributes));
      hierarchy.mutable_object_items().emplace_back("depth",
                                                    JsonValue::Number(schema.depth()));
      auto depth_it = committed.find(schema.name);
      int drill_depth = have_session && depth_it != committed.end() ? depth_it->second : -1;
      hierarchy.mutable_object_items().emplace_back("drill_depth",
                                                    JsonValue::Number(drill_depth));
      hierarchy.mutable_object_items().emplace_back(
          "can_drill", JsonValue::Bool(drill_depth >= 0 && drill_depth < schema.depth()));
      hierarchies.mutable_array_items().push_back(std::move(hierarchy));
    }
    item.mutable_object_items().emplace_back("hierarchies", std::move(hierarchies));
    datasets.mutable_array_items().push_back(std::move(item));
  }
  root.mutable_object_items().emplace_back("datasets", std::move(datasets));
  return HttpResponse::Json(200, WriteJson(root));
}

Result<std::string> ReptileService::ResolveUnderDatasetRoot(const std::string& relative,
                                                            const std::string& field) const {
  // Server-side file access must be confined: without a configured root, an
  // unauthenticated client could read (or write) any file the server process
  // can (CSV parse errors echo file contents byte-for-byte).
  if (options_.dataset_path_root.empty()) {
    return Status::InvalidArgument(
        "server-side \"" + field +
        "\" access is disabled on this server (no dataset root configured)");
  }
  if (relative.empty() || relative.front() == '/') {
    return Status::InvalidArgument(
        "\"" + field + "\" must be relative to the server's dataset root");
  }
  for (size_t pos = 0; pos < relative.size();) {
    size_t end = relative.find('/', pos);
    if (end == std::string::npos) end = relative.size();
    if (relative.substr(pos, end - pos) == "..") {
      return Status::InvalidArgument("\"" + field + "\" must not contain \"..\" components");
    }
    pos = end + 1;
  }
  // Lexical checks are not enough: a symlink under the root can point
  // anywhere, re-opening the arbitrary-file access the root exists to close.
  // Canonicalize both sides and require the resolved file to stay under the
  // resolved root.
  std::error_code ec;
  std::filesystem::path root =
      std::filesystem::weakly_canonical(options_.dataset_path_root, ec);
  if (ec) {
    return Status::IoError("the server's dataset root is not accessible");
  }
  std::filesystem::path resolved = std::filesystem::weakly_canonical(root / relative, ec);
  if (ec) resolved = root / relative;  // nonexistent tail; the open reports it
  auto mismatch = std::mismatch(root.begin(), root.end(), resolved.begin(), resolved.end());
  if (mismatch.first != root.end()) {
    return Status::InvalidArgument("\"" + field + "\" escapes the server's dataset root");
  }
  return resolved.string();
}

HttpResponse ReptileService::HandleDatasetSnapshot(const RouteArgs& args) {
  const std::string& name = args.param;
  Result<JsonValue> parsed = ParseObjectBody(args.request.body, {"path"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  Result<std::string> relative = StringField(*parsed, "request body", "path", true);
  if (!relative.ok()) return ErrorResponse(relative.status());
  Result<std::string> resolved = ResolveUnderDatasetRoot(*relative, "path");
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  Result<DatasetHandle> handle = registry_->Find(name);
  if (!handle.ok()) return ErrorResponse(handle.status());
  Status saved = SavePreparedDataset(**handle, *resolved);
  if (!saved.ok()) return ErrorResponse(saved);
  std::error_code ec;
  uintmax_t bytes = std::filesystem::file_size(*resolved, ec);
  std::string response = "{\"dataset\":" + JsonQuote(name) +
                         ",\"path\":" + JsonQuote(*relative) +
                         ",\"bytes\":" + std::to_string(ec ? 0 : bytes) + "}";
  return HttpResponse::Json(201, std::move(response));
}

HttpResponse ReptileService::HandleDatasetCreate(const RouteArgs& args) {
  Result<JsonValue> parsed =
      ParseObjectBody(args.request.body, {"name", "csv", "path", "snapshot", "dimensions",
                                          "measures", "hierarchies", "separator", "commits"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  Result<std::string> name = StringField(*parsed, "request body", "name", true);
  if (!name.ok()) return ErrorResponse(name.status());

  const JsonValue* inline_csv = parsed->Find("csv");
  const JsonValue* path = parsed->Find("path");
  const JsonValue* snapshot = parsed->Find("snapshot");
  int sources = (inline_csv != nullptr) + (path != nullptr) + (snapshot != nullptr);
  if (sources != 1) {
    return ErrorResponse(Status::InvalidArgument(
        "request body needs exactly one of \"csv\" (inline upload), \"path\" "
        "(server-side file), or \"snapshot\" (server-side binary snapshot)"));
  }

  if (snapshot != nullptr) {
    // The snapshot carries its own schema; CSV typing fields are meaningless
    // with it and a silent ignore would hide caller confusion.
    for (const char* field : {"dimensions", "measures", "hierarchies", "separator"}) {
      if (parsed->Find(field) != nullptr) {
        return ErrorResponse(Status::InvalidArgument(
            std::string("\"") + field +
            "\" cannot be combined with \"snapshot\" (the snapshot carries the schema)"));
      }
    }
    if (!snapshot->is_string()) {
      return ErrorResponse(WrongType("snapshot", "a string", *snapshot));
    }
    Result<std::vector<std::string>> snapshot_commits =
        StringListField(*parsed, "request body", "commits", false);
    if (!snapshot_commits.ok()) return ErrorResponse(snapshot_commits.status());
    Result<std::string> resolved =
        ResolveUnderDatasetRoot(snapshot->string_value(), "snapshot");
    if (!resolved.ok()) return ErrorResponse(resolved.status());
    Result<DatasetHandle> handle = LoadPreparedDataset(*resolved);
    if (!handle.ok()) return ErrorResponse(handle.status());
    size_t rows = (*handle)->table().num_rows();
    Status added = AddPreparedDataset(*name, std::move(handle).value(), *snapshot_commits);
    if (!added.ok()) return ErrorResponse(added);
    std::string response = "{\"dataset\":" + JsonQuote(*name) +
                           ",\"rows\":" + std::to_string(rows) +
                           ",\"session\":" + JsonQuote(DefaultSessionId(*name)) + "}";
    return HttpResponse::Json(201, std::move(response));
  }

  CsvSpec spec;
  Result<std::vector<std::string>> dimensions =
      StringListField(*parsed, "request body", "dimensions", true);
  if (!dimensions.ok()) return ErrorResponse(dimensions.status());
  spec.dimension_columns = std::move(*dimensions);
  Result<std::vector<std::string>> measures =
      StringListField(*parsed, "request body", "measures", false);
  if (!measures.ok()) return ErrorResponse(measures.status());
  spec.measure_columns = std::move(*measures);
  Result<std::string> separator = StringField(*parsed, "request body", "separator", false, ",");
  if (!separator.ok()) return ErrorResponse(separator.status());
  if (separator->size() != 1) {
    return ErrorResponse(
        Status::InvalidArgument("separator must be a single character, got \"" + *separator +
                                "\""));
  }
  spec.separator = (*separator)[0];

  std::vector<HierarchySchema> hierarchies;
  const JsonValue* hierarchy_list = parsed->Find("hierarchies");
  if (hierarchy_list == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("request body is missing required field \"hierarchies\""));
  }
  if (!hierarchy_list->is_array()) {
    return ErrorResponse(WrongType("hierarchies", "an array", *hierarchy_list));
  }
  const std::vector<JsonValue>& items = hierarchy_list->array_items();
  for (size_t i = 0; i < items.size(); ++i) {
    std::string context = "hierarchies[" + std::to_string(i) + "]";
    if (!items[i].is_object()) return ErrorResponse(WrongType(context, "an object", items[i]));
    Status keys = CheckKnownKeys(items[i], context, {"name", "attributes"});
    if (!keys.ok()) return ErrorResponse(keys);
    Result<std::string> hierarchy_name = StringField(items[i], context, "name", true);
    if (!hierarchy_name.ok()) return ErrorResponse(hierarchy_name.status());
    Result<std::vector<std::string>> attributes =
        StringListField(items[i], context, "attributes", true);
    if (!attributes.ok()) return ErrorResponse(attributes.status());
    hierarchies.push_back(
        HierarchySchema{std::move(*hierarchy_name), std::move(*attributes)});
  }

  Result<std::vector<std::string>> commits =
      StringListField(*parsed, "request body", "commits", false);
  if (!commits.ok()) return ErrorResponse(commits.status());

  Result<Table> table = [&]() -> Result<Table> {
    if (inline_csv != nullptr) {
      if (!inline_csv->is_string()) return WrongType("csv", "a string", *inline_csv);
      return LoadCsvText(inline_csv->string_value(), spec);
    }
    if (!path->is_string()) return WrongType("path", "a string", *path);
    Result<std::string> resolved = ResolveUnderDatasetRoot(path->string_value(), "path");
    if (!resolved.ok()) return resolved.status();
    return LoadCsv(*resolved, spec);
  }();
  if (!table.ok()) return ErrorResponse(table.status());
  size_t rows = table->num_rows();

  Result<Dataset> dataset = Dataset::Make(std::move(table).value(), std::move(hierarchies));
  if (!dataset.ok()) return ErrorResponse(dataset.status());

  Status added = AddDataset(*name, std::move(dataset).value(), *commits);
  if (!added.ok()) return ErrorResponse(added);

  std::string response = "{\"dataset\":" + JsonQuote(*name) +
                         ",\"rows\":" + std::to_string(rows) +
                         ",\"session\":" + JsonQuote(DefaultSessionId(*name)) + "}";
  return HttpResponse::Json(201, std::move(response));
}

HttpResponse ReptileService::HandleDatasetDelete(const RouteArgs& args) {
  Status removed = RemoveDataset(args.param);
  if (!removed.ok()) return ErrorResponse(removed);
  return HttpResponse::Json(200, "{\"deleted\":" + JsonQuote(args.param) + "}");
}

Result<std::string> ReptileService::AppendToDataset(const std::string& name,
                                                    const std::string& csv_text,
                                                    const std::string& origin) {
  // One append at a time per service: the registry would reject the loser of
  // a head race with FailedPrecondition, but that 409 would be an artifact of
  // server-internal timing — serializing turns two racing clients into a
  // clean v2-then-v3 succession. Taken OUTSIDE mu_, never inside.
  std::lock_guard<std::mutex> append_lock(append_mu_);

  // Appends address the CHAIN, so only its base name is accepted: a pinned
  // "name@vK" alias names an immutable version, not something appendable.
  if (!registry_->Contains(name)) {
    std::string base;
    int64_t pinned = 0;
    if (ParseVersionedName(name, &base, &pinned) && registry_->Contains(base)) {
      return Status::InvalidArgument(
          "appends go to the dataset's base name '" + base +
          "' (its head); the pinned alias '" + name + "' names an immutable version");
    }
    return Status::NotFound("no dataset named '" + name + "' is loaded on this server");
  }
  Result<DatasetHandle> head = registry_->Find(name);
  if (!head.ok()) return head.status();

  Result<AppendResult> appended = AppendRowsCsv(*head, csv_text, origin);
  if (!appended.ok()) return appended.status();
  const DatasetHandle& child = appended->child;
  if (options_.cache_budget_bytes > 0) {
    // The shared caches carry the parent's budget already; the child's own
    // group-statistics cache starts unbudgeted and needs its share.
    child->SetCacheBudgetBytes(options_.cache_budget_bytes);
  }

  // The replacement default session is opened BEFORE mu_ (engine construction
  // is not free); its committed depths are restored under the lock, where the
  // old default can no longer advance them.
  Result<Session> fresh = Session::Open(child, options_.session_defaults);
  if (!fresh.ok()) return fresh.status();

  const std::string id = DefaultSessionId(name);
  {
    // One critical section publishes the new head AND moves the default
    // session onto it — no observer sees the chain advanced but the alias
    // serving the old version (the same atomicity InstallPrepared gives
    // dataset creation). Named sessions are deliberately untouched: they
    // stay pinned to the version they opened.
    std::unique_lock<std::shared_mutex> lock(mu_);
    Result<int64_t> retired =
        registry_->AppendVersion(name, child, appended->invalidated_entries);
    if (!retired.ok()) return retired.status();
    auto it = sessions_.find(id);
    if (it != sessions_.end() && it->second->is_default) {
      std::map<std::string, int> committed;
      {
        std::lock_guard<std::mutex> session_lock(it->second->mu);
        committed = it->second->session.CommittedDepths();
      }
      Status restored = fresh->RestoreCommitted(committed);
      if (!restored.ok()) return restored;  // unreachable: hierarchies are append-invariant
      sessions_[id] = std::make_shared<SessionEntry>(id, name, child->version(),
                                                     /*is_default=*/true,
                                                     std::move(fresh).value(), NowNs());
    }
    // AppendVersion's inline GC ran while the OLD default session (and this
    // frame's head handle) still pinned the parent, so the parent survived
    // it. Both references are gone now — drop ours and re-sweep so an
    // unpinned parent retires at THIS append instead of lingering until the
    // next one.
    (*head).reset();
    (void)registry_->CollectGarbage(name);  // NotFound impossible: name checked above
  }

  return "{\"dataset\":" + JsonQuote(name) +
         ",\"dataset_version\":" + std::to_string(child->version()) +
         ",\"rows\":" + std::to_string(appended->total_rows) +
         ",\"appended\":" + std::to_string(appended->appended_rows) +
         ",\"session\":" + JsonQuote(id) + "}";
}

HttpResponse ReptileService::HandleDatasetAppend(const RouteArgs& args) {
  Result<JsonValue> parsed = ParseObjectBody(args.request.body, {"csv"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  Result<std::string> csv = StringField(*parsed, "request body", "csv", true);
  if (!csv.ok()) return ErrorResponse(csv.status());
  Result<std::string> response = AppendToDataset(args.param, *csv, "inline csv");
  if (!response.ok()) return ErrorResponse(response.status());
  return HttpResponse::Json(201, std::move(response).value());
}

HttpResponse ReptileService::HandleSessionList(const RouteArgs&) {
  EvictIdleSessions();
  std::vector<EntryPtr> entries;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    entries.reserve(sessions_.size());
    for (const auto& [id, entry] : sessions_) entries.push_back(entry);
  }
  std::string body = "{\"sessions\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) body += ',';
    body += SessionSnapshotJson(*entries[i]);
  }
  body += "]}";
  return HttpResponse::Json(200, std::move(body));
}

HttpResponse ReptileService::HandleSessionCreate(const RouteArgs& args) {
  Result<JsonValue> parsed =
      ParseObjectBody(args.request.body, {"dataset", "committed", "options"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  Result<std::string> dataset = StringField(*parsed, "request body", "dataset", true);
  if (!dataset.ok()) return ErrorResponse(dataset.status());
  Result<std::map<std::string, int>> committed = ParseCommittedMap(*parsed, "request body");
  if (!committed.ok()) return ErrorResponse(committed.status());

  ExploreRequest session_options = options_.session_defaults;
  if (const JsonValue* options = parsed->Find("options")) {
    const std::string context = "options";
    if (!options->is_object()) {
      return ErrorResponse(WrongType(context, "an object", *options));
    }
    Status option_keys = CheckKnownKeys(*options, context, {"top_k", "threads", "model"});
    if (!option_keys.ok()) return ErrorResponse(option_keys);
    if (options->Find("top_k") != nullptr) {
      Result<int> top_k = IntField(*options, context, "top_k", 0);
      if (!top_k.ok()) return ErrorResponse(top_k.status());
      session_options.TopK(*top_k);
    }
    if (options->Find("threads") != nullptr) {
      Result<int> threads = IntField(*options, context, "threads", 0);
      if (!threads.ok()) return ErrorResponse(threads.status());
      session_options.Threads(*threads);
    }
    if (const JsonValue* model = options->Find("model")) {
      Result<ModelSpec> spec = ParseModelSpec(*model, context + ".model");
      if (!spec.ok()) return ErrorResponse(spec.status());
      session_options.Model(std::move(*spec));
    }
  }

  Result<EntryPtr> entry = CreateSessionEntry(*dataset, *committed, &session_options);
  if (!entry.ok()) return ErrorResponse(entry.status());
  return HttpResponse::Json(201, SessionSnapshotJson(**entry));
}

HttpResponse ReptileService::HandleSessionGet(const RouteArgs& args) {
  Result<EntryPtr> entry = FindSession(args.param);
  if (!entry.ok()) return ErrorResponse(entry.status());
  return HttpResponse::Json(200, SessionSnapshotJson(**entry));
}

HttpResponse ReptileService::HandleSessionDelete(const RouteArgs& args) {
  Status deleted = DeleteSession(args.param);
  if (!deleted.ok()) return ErrorResponse(deleted);
  return HttpResponse::Json(200, "{\"deleted\":" + JsonQuote(args.param) + "}");
}

HttpResponse ReptileService::HandleRecommend(const RouteArgs& args) {
  const bool batch = args.request.path == "/v1/recommend_batch";
  TraceContext* trace = args.trace;
  Result<JsonValue> parsed = ParseObjectBody(
      args.request.body, {"session", "dataset", batch ? "complaints" : "complaint", "options"},
      trace);
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  Result<EntryPtr> entry = ResolveTarget(*parsed);
  if (!entry.ok()) return ErrorResponse(entry.status());

  std::vector<ComplaintSpec> complaints;
  if (batch) {
    const JsonValue* list = parsed->Find("complaints");
    if (list == nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("request body is missing required field \"complaints\""));
    }
    if (!list->is_array()) {
      return ErrorResponse(WrongType("complaints", "an array", *list));
    }
    const std::vector<JsonValue>& items = list->array_items();
    for (size_t i = 0; i < items.size(); ++i) {
      Result<ComplaintSpec> spec =
          ParseComplaintSpec(items[i], "complaints[" + std::to_string(i) + "]");
      if (!spec.ok()) return ErrorResponse(spec.status());
      complaints.push_back(std::move(*spec));
    }
    if (complaints.empty()) {
      return ErrorResponse(Status::InvalidArgument("complaints must be non-empty"));
    }
  } else {
    const JsonValue* one = parsed->Find("complaint");
    if (one == nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("request body is missing required field \"complaint\""));
    }
    Result<ComplaintSpec> spec = ParseComplaintSpec(*one, "complaint");
    if (!spec.ok()) return ErrorResponse(spec.status());
    complaints.push_back(std::move(*spec));
  }

  Result<WireOptions> options = ParseOptions(*parsed);
  if (!options.ok()) return ErrorResponse(options.status());
  options->batch.trace = trace;
  if (trace != nullptr && options->zero_timings) trace->set_zero_durations(true);

  // Both forms answer with the exact ToJson() bytes. The version rides a
  // header, NEVER the body: the differential tests compare status + body
  // only — extra headers are free.
  auto respond = [&](auto response) {
    if (!response.ok()) return ErrorResponse(response.status());
    if (options->zero_timings) ZeroTimings(&*response);
    std::string json;
    {
      ScopedSpan serialize_span(trace, "serialize");
      json = response->ToJson();
    }
    HttpResponse ok = HttpResponse::Json(200, std::move(json));
    ok.extra_headers.emplace_back("X-Dataset-Version",
                                  std::to_string((*entry)->dataset_version));
    return ok;
  };
  if (batch) {
    return respond([&] {
      std::lock_guard<std::mutex> lock((*entry)->mu);
      return (*entry)->session.RecommendAll(
          std::span<const ComplaintSpec>(complaints.data(), complaints.size()),
          options->batch);
    }());
  }
  return respond([&] {
    std::lock_guard<std::mutex> lock((*entry)->mu);
    return (*entry)->session.Recommend(complaints.front(), options->batch);
  }());
}

HttpResponse ReptileService::HandleView(const RouteArgs& args) {
  Result<JsonValue> parsed = ParseObjectBody(
      args.request.body, {"session", "dataset", "group_by", "measure", "where"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  Result<EntryPtr> entry = ResolveTarget(*parsed);
  if (!entry.ok()) return ErrorResponse(entry.status());

  ViewRequest view;
  const JsonValue* group_by = parsed->Find("group_by");
  if (group_by == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("request body is missing required field \"group_by\""));
  }
  if (!group_by->is_array()) {
    return ErrorResponse(WrongType("group_by", "an array", *group_by));
  }
  const std::vector<JsonValue>& columns = group_by->array_items();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!columns[i].is_string()) {
      return ErrorResponse(
          WrongType("group_by[" + std::to_string(i) + "]", "a string", columns[i]));
    }
    view.group_by.push_back(columns[i].string_value());
  }
  Result<std::string> measure = StringField(*parsed, "request body", "measure", false);
  if (!measure.ok()) return ErrorResponse(measure.status());
  view.measure = std::move(*measure);
  Result<std::vector<NamedPredicate>> where = ParseWhere(*parsed, "request body");
  if (!where.ok()) return ErrorResponse(where.status());
  view.where = std::move(*where);

  Result<ViewResponse> response = [&] {
    std::lock_guard<std::mutex> lock((*entry)->mu);
    return (*entry)->session.View(view);
  }();
  if (!response.ok()) return ErrorResponse(response.status());
  HttpResponse ok = HttpResponse::Json(200, response->ToJson());
  ok.extra_headers.emplace_back("X-Dataset-Version",
                                std::to_string((*entry)->dataset_version));
  return ok;
}

HttpResponse ReptileService::HandleCommit(const RouteArgs& args) {
  Result<JsonValue> parsed =
      ParseObjectBody(args.request.body, {"session", "dataset", "hierarchy"});
  if (!parsed.ok()) return ErrorResponse(parsed.status());

  Result<std::string> hierarchy = StringField(*parsed, "request body", "hierarchy", true);
  if (!hierarchy.ok()) return ErrorResponse(hierarchy.status());
  Result<EntryPtr> entry = ResolveTarget(*parsed);
  if (!entry.ok()) return ErrorResponse(entry.status());

  std::lock_guard<std::mutex> lock((*entry)->mu);
  Session& session = (*entry)->session;
  Status committed = session.Commit(*hierarchy);
  if (!committed.ok()) return ErrorResponse(committed);
  Result<int> depth = session.DrillDepth(*hierarchy);
  Result<bool> can_drill = session.CanDrill(*hierarchy);
  std::string response = "{\"hierarchy\":" + JsonQuote(*hierarchy) +
                         ",\"depth\":" + std::to_string(depth.ok() ? *depth : -1) +
                         ",\"can_drill\":" +
                         ((can_drill.ok() && *can_drill) ? "true" : "false") + "}";
  HttpResponse ok = HttpResponse::Json(200, std::move(response));
  ok.extra_headers.emplace_back("X-Dataset-Version",
                                std::to_string((*entry)->dataset_version));
  return ok;
}

}  // namespace reptile
