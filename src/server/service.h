// The routing/handler layer of the Reptile server: a shared immutable
// DatasetRegistry plus a runtime-mutable table of per-client Sessions, with
// the api/ Status error contract spoken as HTTP status codes.
//
// Routes: ReptileService::Routes() in service.cpp is the one table of them —
// method, path pattern, whether the bearer token gates it, whether it takes
// a streamed text/csv body, and the handler. The dispatcher, the 404/405
// answers (with their Allow header), the auth check and StartStreamingBody()
// all read that table. README.md's "Serving Reptile over HTTP" section
// documents each request and response.
//
// Dataset/session split: every dataset is prepared once (table, hierarchies,
// f-trees, shared aggregate cache) and all sessions over it — created and
// destroyed freely at runtime — share that immutable state; a session owns
// only its drill depths. Two analysts exploring one dataset no longer share
// drill state, yet still share every cached aggregate.
//
// Deprecated alias: the request form {"dataset": name, ...} routes to the
// dataset's DEFAULT session (opened when the dataset is registered). New
// clients create their own session and pass {"session": id, ...}.
//
// Idle TTL: a non-default session untouched for session_ttl_seconds is
// evicted on the next session-table access (no background thread; the table
// is swept opportunistically). Default sessions are never evicted.
//
// Success bodies of recommend/recommend_batch/view are the *exact* bytes of
// the corresponding response ToJson() — the HTTP layer adds nothing — so a
// wire client sees byte-identical output to an in-process Session call.
// `"options":{"zero_timings":true}` zeroes the (scheduling-dependent) timing
// fields before serialization for clients that want cacheable/comparable
// bodies; everything else is unaffected.
//
// Error contract: every failure is rendered as
//   {"error":{"code":"NOT_FOUND","http":404,"message":"..."}}
// with one central StatusCode -> HTTP mapping (HttpStatusFor):
//   kInvalidArgument, kParseError -> 400    kNotFound -> 404
//   kFailedPrecondition           -> 409    kIoError, kInternal -> 500
// Unknown routes are 404, known routes with the wrong method 405 (with an
// Allow header); request-framing failures (oversized body 413, oversized
// headers 431, malformed syntax 400) are produced by the HTTP layer below.
// Request mapping is strict: unknown or wrong-typed fields are rejected as
// kInvalidArgument naming the field, and malformed JSON is a kParseError
// carrying the parser's byte offset.
//
// Auth: when ServiceOptions::auth_token is set, the routes the table marks
// gated — every write (dataset create, delete, snapshot and row append;
// session create and delete; commit) and GET /v1/debug/requests — require
// "Authorization: Bearer <token>"; failures get the standard envelope with
// code UNAUTHENTICATED and HTTP 401. /healthz, /metricsz and the other reads
// stay open so probes and dashboards need no credentials.
//
// Metrics: every number the server reports is one series on the service's
// MetricsRegistry (metrics()). /metricsz renders it as Prometheus text and
// /healthz embeds it as JSON under "metrics", beside the version chains.
//
// Concurrency: Handle() is thread-safe, and so is every mutator: the session
// table sits behind a shared_mutex (lookups take the shared lock; create /
// delete / TTL eviction take the exclusive lock), the registry is internally
// synchronized, and entries are shared_ptr so a session evicted or deleted
// mid-request finishes its in-flight call safely. Each session serializes
// its calls behind a per-session mutex — a Session is not thread-safe, and
// parallelism belongs *inside* a call (the engine's worker-pool fan-out) or
// across *different* sessions, never across calls into one session.

#ifndef REPTILE_SERVER_SERVICE_H_
#define REPTILE_SERVER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/session.h"
#include "api/status.h"
#include "net/http_message.h"

namespace reptile {

class JsonValue;        // server/json.h
class TraceContext;     // obs/trace.h
class RequestRing;      // obs/request_ring.h
class MetricsRegistry;  // obs/metrics.h
class Counter;          // obs/metrics.h
class Histogram;        // obs/metrics.h

struct ServiceOptions {
  // Idle TTL for non-default sessions, in seconds; 0 = never evict. An
  // expired session is evicted on the next session-table access (the sweep
  // is throttled to at most once per ttl/8 so steady-state lookups do not
  // pay an O(sessions) scan).
  int session_ttl_seconds = 0;

  // Root directory for POST /v1/datasets {"path": ...} server-side loads.
  // EMPTY (the default) DISABLES the path form entirely — an unauthenticated
  // client must not be able to read arbitrary server-side files (CSV parse
  // errors echo file contents). When set, requests are confined to this
  // directory: absolute paths and ".." components are rejected. Inline
  // {"csv": ...} uploads are always available.
  std::string dataset_path_root;

  // Session options (top_k, threads, model, ...) applied to every session
  // the service opens: default sessions, POST /v1/sessions (whose per-call
  // "options" override top_k / threads), and uploaded datasets.
  ExploreRequest session_defaults;

  // Resource caps — both routes are unauthenticated, so without bounds a
  // client could grow the session table / registry until the server OOMs.
  // Exceeding a cap is kFailedPrecondition (HTTP 409). 0 = unlimited.
  // max_sessions counts per-client sessions only (defaults are one per
  // dataset, already bounded by max_datasets).
  int64_t max_sessions = 1024;
  int64_t max_datasets = 64;

  // Time source for TTL bookkeeping; nullptr = std::chrono::steady_clock.
  // Injectable so tests drive eviction deterministically.
  std::function<std::chrono::steady_clock::time_point()> clock;

  // Bearer token required on the gated routes (see the header comment) when
  // non-empty. Empty (the default) disables the check entirely.
  std::string auth_token;

  // Capacity of the in-memory ring of recent request trace records served
  // at GET /v1/debug/requests (trace id, route, status, stage spans). 0
  // (the default) disables both the ring and the route — debug introspection
  // is opt-in. When auth_token is set the route requires the bearer token
  // (request paths and ids are operational data, not for anonymous probes).
  size_t debug_request_ring = 0;

  // Requests slower than this many milliseconds are logged at warn level
  // (event "slow_request") with their stage spans, regardless of the
  // logger's per-request debug line. 0 (the default) disables the check.
  double slow_request_ms = 0.0;

  // Total cache memory target per dataset, in bytes, split evenly between
  // the dataset's shared aggregate cache, its fitted-model cache and its
  // group-statistics cache (see PreparedDataset::SetCacheBudgetBytes). Applied to every dataset the
  // service installs (startup loads, uploads, snapshot restores). Past the
  // budget the caches evict least-recently-used entries; in-flight holders
  // keep evicted entries alive via their shared_ptr. 0 = unlimited.
  size_t cache_budget_bytes = 0;
};

class ReptileService {
 public:
  explicit ReptileService(ServiceOptions options = ServiceOptions());

  /// Shares an externally owned registry (e.g. with direct in-process
  /// sessions, or a second server): datasets added on either side are
  /// visible to both.
  ReptileService(std::shared_ptr<DatasetRegistry> registry, ServiceOptions options);

  ~ReptileService();  // out-of-line: members are forward-declared obs types

  /// Registers `dataset` under `name` and opens its default session (the
  /// deprecated {"dataset": name} alias target), committing `commits` in
  /// order. InvalidArgument on an empty/duplicate name or invalid dataset.
  /// Thread-safe; callable while serving.
  Status AddDataset(std::string name, Dataset dataset,
                    const std::vector<std::string>& commits = {});

  /// Registers an already-prepared dataset (e.g. one restored from a binary
  /// snapshot, caches pre-warmed) exactly as AddDataset does: applies the
  /// service cache budget, opens the default session, commits `commits`.
  Status AddPreparedDataset(const std::string& name, DatasetHandle handle,
                            const std::vector<std::string>& commits = {});

  /// Drops the dataset from the registry AND removes every session over it
  /// (default included) — the only safe way to unload: removing through
  /// registry() directly would strand the default session serving the
  /// deprecated alias forever. In-flight requests hold their entry and
  /// handle, so they finish; the prepared dataset's memory is released when
  /// the last holder drops. NotFound when the name is not registered.
  Status RemoveDataset(const std::string& name);

  /// Opens a per-client session over the named dataset, optionally restoring
  /// a committed-depth map; returns the new session id. Thread-safe. The
  /// HTTP route POST /v1/sessions lands here.
  Result<std::string> CreateSession(const std::string& dataset,
                                    const std::map<std::string, int>& committed = {},
                                    const ExploreRequest* options = nullptr);

  /// Deletes a non-default session by id. NotFound for unknown ids,
  /// InvalidArgument for a default session.
  Status DeleteSession(const std::string& id);

  /// Routes one request; never throws. Thread-safe across connections.
  /// Observability wrapper around the routing chain: mints (or adopts from a
  /// valid X-Request-Id header) the request's trace id, threads a
  /// TraceContext through the recommend pipeline, and stamps every response
  /// with X-Request-Id and Server-Timing headers while recording the
  /// request into the latency histograms, the debug ring (when enabled),
  /// and the structured log.
  HttpResponse Handle(const HttpRequest& request);

  /// Streaming-upload hook for the front end
  /// (ReactorServerOptions::stream_factory): returns a sink for a text/csv
  /// body sent to a route that streams one, nullptr for every other request
  /// (the front end buffers those normally). Two routes stream:
  ///
  /// POST /v1/datasets/{name}/rows — the body is the raw CSV of the appended
  /// rows (header line included); no query parameters are accepted (the
  /// dataset already defines the schema and separator). The chunks are
  /// accumulated and run through the same append path as the JSON form.
  ///
  /// POST /v1/datasets — the body is raw CSV, fed chunk by chunk through
  /// CsvStreamParser (never materialized), and the dataset typing rides the
  /// query string, percent-decoded:
  ///   name=NAME&dimensions=a,b[&measures=x,y][&hierarchy=geo:country,city]
  ///   [&hierarchy=...][&commits=geo,time][&separator=%09]
  /// ("hierarchy" repeats, one per hierarchy, attributes comma-separated.)
  ///
  /// Auth/metadata failures still return a sink: one that rejects the first
  /// body chunk and reports the error, so the client gets the standard
  /// envelope without the server consuming the upload.
  std::unique_ptr<HttpBodySink> StartStreamingBody(const HttpRequest& head);

  /// What a route handler gets: the request, the path's "{...}" segment (a
  /// dataset name or session id; empty for fixed paths) and the trace.
  struct RouteArgs {
    const HttpRequest& request;
    std::string param;
    TraceContext* trace;
  };

  /// One row of the route table. A "{...}" in `pattern` matches one
  /// non-empty name or id (the rest of the path when nothing follows it).
  struct Route {
    const char* method;
    const char* pattern;
    bool gated;  // requires the bearer token when auth_token is set
    bool (*enabled)(const ServiceOptions&);  // nullptr: always served
    // Non-null when the route takes a streamed text/csv body: the sink.
    std::unique_ptr<HttpBodySink> (ReptileService::*stream_csv)(const RouteArgs&);
    HttpResponse (ReptileService::*handle)(const RouteArgs&);
  };

  /// Every route, in match order: a path belongs to the first pattern it
  /// matches, and that pattern's rows list the methods it accepts.
  static std::span<const Route> Routes();

  /// The service's metrics: every number /metricsz and /healthz report.
  /// Register the front end's counters here (ReactorServer::RegisterMetrics).
  MetricsRegistry& metrics() { return *metrics_; }

  /// The single StatusCode -> HTTP status mapping (kOk -> 200).
  static int HttpStatusFor(StatusCode code);

  /// A non-OK Status rendered as the standard JSON error body.
  static HttpResponse ErrorResponse(const Status& status);

  /// Registered dataset names, sorted.
  std::vector<std::string> dataset_names() const;

  /// Live session ids, sorted (default sessions included).
  std::vector<std::string> session_ids() const;

  /// Sessions evicted by the idle TTL so far.
  int64_t sessions_evicted() const { return sessions_evicted_.load(); }

  /// The shared dataset registry.
  DatasetRegistry& registry() { return *registry_; }
  const DatasetRegistry& registry() const { return *registry_; }

 private:
  friend class DatasetUploadSink;  // the StartStreamingBody sinks (service.cpp)
  friend class DatasetAppendSink;

  struct SessionEntry {
    SessionEntry(std::string id, std::string dataset, int64_t dataset_version,
                 bool is_default, Session s, int64_t now_ns)
        : id(std::move(id)),
          dataset(std::move(dataset)),
          dataset_version(dataset_version),
          is_default(is_default),
          session(std::move(s)),
          last_used_ns(now_ns) {}

    const std::string id;
    const std::string dataset;           // registry BASE name (no "@vK")
    const int64_t dataset_version;       // chain version this session is pinned to
    const bool is_default;    // alias target: never evicted, not deletable
    std::mutex mu;                // serializes calls into this session
    Session session;
    std::atomic<int64_t> last_used_ns;  // steady-clock ns; TTL bookkeeping
  };
  using EntryPtr = std::shared_ptr<SessionEntry>;

  int64_t NowNs() const;

  /// The single spelling of a dataset's default-session id ("default:NAME");
  /// minted by AddDataset and echoed by the dataset-upload response.
  static std::string DefaultSessionId(const std::string& dataset);

  /// Evicts idle non-default sessions (no-op when the TTL is off). Called on
  /// every session-table access.
  void EvictIdleSessions();

  Result<EntryPtr> FindSession(const std::string& id);
  Result<EntryPtr> FindDefaultSession(const std::string& dataset);

  /// CreateSession's body, returning the live entry so the HTTP route never
  /// has to re-look up (and possibly lose to a racing delete) the session it
  /// just made.
  Result<EntryPtr> CreateSessionEntry(const std::string& dataset,
                                      const std::map<std::string, int>& committed,
                                      const ExploreRequest* options);

  /// Resolves the request body's session address — exactly one of
  /// {"session": id} (per-client) or {"dataset": name} (deprecated alias,
  /// the default session) — and stamps the entry's last-used time.
  Result<EntryPtr> ResolveTarget(const JsonValue& body);

  /// The session snapshot JSON (id, dataset, default flag, committed depths).
  std::string SessionSnapshotJson(SessionEntry& entry);

  /// The route serving `request` (filling `param`), or nullptr. When the
  /// path matches a pattern but the method does not, `allow` (if given)
  /// lists the methods the pattern accepts, as the 405's Allow header.
  const Route* MatchRoute(const HttpRequest& request, std::string* param,
                          std::string* allow) const;

  /// True when `request` may use `route`: the route is open, auth is off, or
  /// the Authorization header carries the configured token.
  bool CheckAuth(const Route& route, const HttpRequest& request) const;

  /// AddDataset / AddPreparedDataset's shared tail: applies the cache
  /// budget, opens + commits the default session, and publishes the registry
  /// entry and the session atomically.
  Status InstallPrepared(const std::string& name, DatasetHandle handle,
                         const std::vector<std::string>& commits);

  /// The append core shared by the JSON route and the streamed-CSV sink:
  /// serializes appends behind append_mu_, builds the child version
  /// structurally sharing the head (version/append.h), publishes it through
  /// DatasetRegistry::AppendVersion, and moves the dataset's DEFAULT session
  /// to the new head (committed depths preserved — named sessions stay
  /// pinned). Returns the 201 response body. `name` must be the chain's base
  /// name: appending through a pinned "name@vK" alias is NotFound.
  Result<std::string> AppendToDataset(const std::string& name,
                                      const std::string& csv_text,
                                      const std::string& origin);

  /// Confines a client-supplied relative path to the configured dataset
  /// root (rejecting absolute paths, ".." components, and symlink escapes)
  /// and returns the resolved absolute path. `field` names the JSON field
  /// in error messages.
  Result<std::string> ResolveUnderDatasetRoot(const std::string& relative,
                                              const std::string& field) const;

  /// The routing chain proper (Handle() without the observability wrapper).
  HttpResponse HandleInternal(const HttpRequest& request, TraceContext* trace);

  /// Registers every scrape-time series (dataset, session, cache, version
  /// and pool numbers) on metrics_.
  void RegisterSeries();

  // Route handlers (see Routes()).
  HttpResponse HandleHealthz(const RouteArgs& args);
  HttpResponse HandleMetricsz(const RouteArgs& args);
  HttpResponse HandleDebugRequests(const RouteArgs& args);
  HttpResponse HandleDatasetList(const RouteArgs& args);
  HttpResponse HandleDatasetCreate(const RouteArgs& args);
  HttpResponse HandleDatasetDelete(const RouteArgs& args);
  HttpResponse HandleDatasetAppend(const RouteArgs& args);
  HttpResponse HandleDatasetSnapshot(const RouteArgs& args);
  HttpResponse HandleSessionList(const RouteArgs& args);
  HttpResponse HandleSessionCreate(const RouteArgs& args);
  HttpResponse HandleSessionGet(const RouteArgs& args);
  HttpResponse HandleSessionDelete(const RouteArgs& args);
  HttpResponse HandleRecommend(const RouteArgs& args);  // and recommend_batch
  HttpResponse HandleView(const RouteArgs& args);
  HttpResponse HandleCommit(const RouteArgs& args);
  std::unique_ptr<HttpBodySink> StreamDatasetCreate(const RouteArgs& args);
  std::unique_ptr<HttpBodySink> StreamDatasetAppend(const RouteArgs& args);

  ServiceOptions options_;
  std::shared_ptr<DatasetRegistry> registry_;

  // Guards sessions_ and next_session_. AddDataset/RemoveDataset also hold
  // it exclusively around their registry mutation so a dataset and its
  // default session appear and disappear atomically (the registry's own
  // lock nests inside mu_, never the other way around). Default sessions
  // are keyed DefaultSessionId(dataset) — no separate dataset->id map.
  mutable std::shared_mutex mu_;
  std::map<std::string, EntryPtr> sessions_;  // by session id
  uint64_t next_session_ = 1;
  std::atomic<int64_t> sessions_evicted_{0};
  std::atomic<int64_t> last_sweep_ns_{0};  // throttles EvictIdleSessions

  // Serializes appends per service (taken OUTSIDE mu_, never inside): the
  // registry rejects out-of-order successions (FailedPrecondition), but
  // serializing here turns two racing clients into clean v2-then-v3 instead
  // of surfacing a 409 for an internal race the client cannot reason about.
  std::mutex append_mu_;

  // Observability state. The registry is per-service (two services in one
  // process — e.g. the differential test stacks — must not share request
  // series). Series pointers are cached at construction so the per-request
  // path never takes the registry mutex.
  const std::chrono::steady_clock::time_point start_time_;
  std::unique_ptr<MetricsRegistry> metrics_;
  Histogram* request_latency_ = nullptr;           // reptile_http_request_duration_seconds
  std::map<int, Counter*> requests_by_class_;      // reptile_http_requests_total{code="Nxx"}
  std::map<std::string, Histogram*> stage_latency_;  // ..._stage_duration_seconds{stage=...}
  std::unique_ptr<RequestRing> request_ring_;      // null unless opted in
};

/// "a,b,c" -> {a, b, c}; empty segments and an empty input yield nothing.
/// The comma lists of the streamed upload's query string and of
/// reptile_serve's --dimensions, --measures and --hierarchy flags.
std::vector<std::string> SplitCommaList(const std::string& value);

}  // namespace reptile

#endif  // REPTILE_SERVER_SERVICE_H_
