// Tests for the event-driven serving tier (src/net/): the epoll reactor's
// wire bytes run differentially against ReptileService::Handle called in
// process on an identically built service (byte-identical bodies over the
// full dataset/session lifecycle, serial and under concurrent clients),
// hostile-client behavior (slow-loris trickle, mid-body disconnects,
// stalled readers, oversized streamed uploads), admission-control counters,
// the 256-idle-connection fixed-thread guarantee, bearer-token auth, the
// client's refusal of framing other than Content-Length, and the streamed
// upload's building block (CsvStreamParser chunk-split equivalence).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "data/csv.h"
#include "datagen/panel_gen.h"
#include "gtest/gtest.h"
#include "net/reactor_server.h"
#include "reptile/reptile.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/service.h"
#include "test_util.h"

namespace reptile {
namespace {

constexpr int kDistricts = 4;
constexpr int kVillages = 3;
constexpr int kYears = 4;
constexpr int kRowsPerGroup = 3;

// MakeSeverityPanel is deterministic in its spec, so the served stack and
// the in-process reference below hold bit-identical datasets — the basis of
// every byte-equality assertion in the differential suite.
Dataset MakePanel() {
  PanelSpec spec;
  spec.districts = kDistricts;
  spec.villages_per_district = kVillages;
  spec.years = kYears;
  spec.rows_per_group = kRowsPerGroup;
  return MakeSeverityPanel(spec);
}

std::string RecommendBody(const std::string& address, int year) {
  return "{" + address +
         R"(,"complaint":{"aggregate":"std","measure":"severity",)"
         R"("where":[{"column":"year","value":"y)" +
         std::to_string(year) +
         R"("}]},"options":{"zero_timings":true}})";
}

std::string BatchBody(const std::string& address) {
  std::string body = "{" + address + R"(,"complaints":[)";
  for (int y = 0; y < kYears; ++y) {
    if (y > 0) body += ',';
    body += R"({"aggregate":"std","measure":"severity","where":[{"column":"year","value":"y)" +
            std::to_string(y) + R"("}]})";
  }
  body += R"(],"options":{"zero_timings":true}})";
  return body;
}

const char kUploadCsv[] =
    "d,y,m\n"
    "d0,y0,1\nd0,y0,2\nd0,y1,3\nd0,y1,4\n"
    "d1,y0,5\nd1,y0,3\nd1,y1,2\nd1,y1,6\n"
    "d2,y0,4\nd2,y0,2\nd2,y1,5\nd2,y1,1\n";

// One service behind the reactor front end. The server is declared first and
// stopped explicitly, so that the service — whose registry reads the
// server's counters once WireTransport() ran — is destroyed before it.
struct Stack {
  explicit Stack(ServiceOptions service_options = ServiceOptions())
      : service(std::move(service_options)) {
    EXPECT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
    ReactorServerOptions options;
    options.num_threads = 2;
    options.tick_interval_ms = 50;
    options.stream_factory = [this](const HttpRequest& head) {
      return service.StartStreamingBody(head);
    };
    server = std::make_unique<ReactorServer>(
        std::move(options),
        [this](const HttpRequest& request) { return service.Handle(request); });
    EXPECT_TRUE(server->Start().ok());
    port = server->port();
  }
  ~Stack() { server->Stop(); }

  /// Registers the front end's counters on the service, as serve_main does.
  void WireTransport() { server->RegisterMetrics(&service.metrics()); }

  std::unique_ptr<ReactorServer> server;
  ReptileService service;
  int port = 0;
};

// A blocking loopback socket with explicit timeouts — for clients that must
// misbehave in ways HttpClient cannot (trickled bytes, half-finished bodies,
// refusing to read).
class RawSocket {
 public:
  explicit RawSocket(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawSocket() { Close(); }
  RawSocket(RawSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawSocket& operator=(RawSocket&&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until EOF or until `deadline_ms` passes with no data.
  std::string ReadUntilClosed(int deadline_ms) {
    std::string out;
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, deadline_ms);
      if (ready <= 0) return out;  // timed out (or error): give back what we have
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return out;  // EOF
      out.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the peer has closed (EOF observed within `deadline_ms`).
  bool WaitForEof(int deadline_ms) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
    for (;;) {
      int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (remaining <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, remaining) <= 0) return false;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) return true;
      if (n < 0) return false;
      // Data (e.g. an error response) before the close: keep draining.
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

// ---- Differential suite ----------------------------------------------------

struct WireCall {
  std::string label;
  std::string method;  // "GET", "POST", "DELETE"
  std::string path;
  std::string body;
  std::string content_type = "application/json";
};

// /healthz values that differ between two independently constructed service
// instances by nature: uptime can straddle a second boundary, the latency
// histograms hold real durations, and the shared pool's depth is an
// instantaneous reading of a process-wide pool. Scrub exactly those; every
// other byte, every counter and gauge included, stays compared.
std::string NormalizeHealthz(const std::string& body) {
  std::string out = body;
  for (std::string_view key :
       {"\"uptime_seconds\":", "\"reptile_http_request_duration_seconds\":",
        "\"reptile_request_stage_duration_seconds\":", "\"reptile_shared_pool_queue_depth\":"}) {
    size_t begin = out.find(key);
    if (begin == std::string::npos) continue;
    begin += key.size();
    // The value ends at the first ',' or closing bracket outside it
    // (string-aware: help text or labels could hold brackets).
    size_t end = begin;
    int depth = 0;
    bool in_string = false, escaped = false;
    for (; end < out.size(); ++end) {
      char c = out[end];
      if (in_string) {
        if (escaped) escaped = false;
        else if (c == '\\') escaped = true;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}' || c == ',') {
        if (depth == 0) break;
        if (c != ',') --depth;
      }
    }
    out.replace(begin, end - begin, "0");
  }
  return out;
}

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        std::string body = std::string(),
                        std::vector<std::pair<std::string, std::string>> headers = {}) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  size_t question = target.find('?');
  request.path = target.substr(0, question);
  if (question != std::string::npos) request.query = target.substr(question + 1);
  request.http_version = "HTTP/1.1";
  request.headers = std::move(headers);
  request.body = std::move(body);
  return request;
}

// The byte-identity reference: an identically built service called in
// process, with no transport at all. A text/csv body goes through the
// streaming hook the way the front end feeds it (StartStreamingBody, the
// body, then Finish).
struct InProcess {
  explicit InProcess(ServiceOptions service_options = ServiceOptions())
      : service(std::move(service_options)) {
    EXPECT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  }

  HttpResponse Call(const WireCall& call) {
    std::vector<std::pair<std::string, std::string>> headers;
    if (call.method == "POST") headers.emplace_back("content-type", call.content_type);
    HttpRequest request = MakeRequest(call.method, call.path, std::string(), headers);
    HttpResponse response;
    if (std::unique_ptr<HttpBodySink> sink = service.StartStreamingBody(request)) {
      bool accepted = call.body.empty() || sink->Append(call.body);
      response = sink->Finish(/*complete=*/accepted);
    } else {
      request.body = call.body;
      response = service.Handle(request);
    }
    return response;
  }

  ReptileService service;
};

void RunDifferentialSequence(const std::vector<WireCall>& calls, InProcess& reference,
                             Stack& served) {
  HttpClient client("127.0.0.1", served.port);
  for (const WireCall& call : calls) {
    Result<HttpClientResponse> wire =
        call.method == "GET"      ? client.Get(call.path)
        : call.method == "DELETE" ? client.Delete(call.path)
                                  : client.Post(call.path, call.body, call.content_type);
    HttpResponse expected = reference.Call(call);
    ASSERT_TRUE(wire.ok()) << call.label << ": " << wire.status().ToString();
    EXPECT_EQ(wire->status, expected.status) << call.label;
    if (call.path == "/healthz" && call.method == "GET") {
      EXPECT_EQ(NormalizeHealthz(wire->body), NormalizeHealthz(expected.body)) << call.label;
    } else {
      EXPECT_EQ(wire->body, expected.body) << call.label;
    }
  }
}

TEST(NetDifferentialTest, FullLifecycleWireBytesMatchInProcessHandle) {
  InProcess reference;
  Stack served;

  const std::string session_address = R"("session":"s-1")";
  std::vector<WireCall> calls = {
      {"healthz", "GET", "/healthz", ""},
      {"dataset list", "GET", "/v1/datasets", ""},
      {"inline upload", "POST", "/v1/datasets",
       std::string(R"({"name":"up","csv":")") +
           "d,y,m\\nd0,y0,1\\nd0,y0,2\\nd0,y1,3\\nd1,y0,4\\nd1,y1,5\\nd1,y1,6\\n" +
           R"(","dimensions":["d","y"],"measures":["m"],)" +
           R"("hierarchies":[{"name":"geo","attributes":["d"]},)" +
           R"({"name":"time","attributes":["y"]}],"commits":["time"]})"},
      {"streamed csv upload", "POST",
       "/v1/datasets?name=sup&dimensions=d,y&measures=m"
       "&hierarchy=geo:d&hierarchy=time:y&commits=time",
       kUploadCsv, "text/csv"},
      {"dataset list after uploads", "GET", "/v1/datasets", ""},
      {"session create", "POST", "/v1/sessions",
       R"({"dataset":"up","committed":{"time":1}})"},
      {"session list", "GET", "/v1/sessions", ""},
      {"recommend via session", "POST", "/v1/recommend",
       "{" + session_address +
           R"(,"complaint":{"aggregate":"mean","measure":"m",)" +
           R"("where":[{"column":"y","value":"y0"}]},"options":{"zero_timings":true}})"},
      {"recommend via default", "POST", "/v1/recommend", RecommendBody(R"("dataset":"panel")", 2)},
      {"recommend_batch", "POST", "/v1/recommend_batch", BatchBody(R"("dataset":"panel")")},
      {"view", "POST", "/v1/view",
       R"({"dataset":"panel","group_by":["year"],"measure":"severity"})"},
      {"commit via session", "POST", "/v1/commit",
       "{" + session_address + R"(,"hierarchy":"geo"})"},
      {"session snapshot", "GET", "/v1/sessions/s-1", ""},
      {"session delete", "DELETE", "/v1/sessions/s-1", ""},
      {"deleted session is 404", "GET", "/v1/sessions/s-1", ""},
      {"streamed dataset recommend", "POST", "/v1/recommend",
       R"({"dataset":"sup","complaint":{"aggregate":"mean","measure":"m",)"
       R"("where":[{"column":"y","value":"y1"}]},"options":{"zero_timings":true}})"},
      {"dataset delete", "DELETE", "/v1/datasets/up", ""},
      {"dataset delete again is 404", "DELETE", "/v1/datasets/up", ""},
      {"bad json", "POST", "/v1/recommend", "{nope"},
      {"unknown route", "GET", "/v1/nothing-here", ""},
      {"wrong method", "POST", "/healthz", "{}"},
      {"bad streamed upload metadata", "POST",
       "/v1/datasets?name=bad&dimensions=d,y&hierarchy=broken", kUploadCsv, "text/csv"},
      {"streamed upload parse error", "POST",
       "/v1/datasets?name=bad2&dimensions=d,y&measures=m", "d,y,m\nd0,y0,not-a-number\n",
       "text/csv"},
      {"healthz after lifecycle", "GET", "/healthz", ""},
  };
  RunDifferentialSequence(calls, reference, served);
}

// /metricsz over the wire: structural assertions only (latency values are
// scheduling-dependent, so no byte comparison) — Prometheus content type,
// the request-latency histogram with cumulative buckets, the stage and
// cache series, and a trace id echoed on the scrape response itself.
TEST(NetDifferentialTest, MetricszServesHistogramsAndTransportGauges) {
  {
    Stack stack;
    HttpClient client("127.0.0.1", stack.port);
    // Drive one recommend through first so the stage histograms are fed.
    Result<HttpClientResponse> rec =
        client.Post("/v1/recommend", RecommendBody(R"("dataset":"panel")", 0));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->status, 200);

    Result<HttpClientResponse> metrics = client.Get("/metricsz");
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(metrics->status, 200);
    ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
    EXPECT_NE(metrics->FindHeader("content-type")->find("version=0.0.4"),
              std::string::npos);
    const std::string& body = metrics->body;
    for (const char* needle :
         {"# TYPE reptile_http_request_duration_seconds histogram",
          "reptile_http_request_duration_seconds_bucket{le=\"+Inf\"}",
          "reptile_http_request_duration_seconds_count",
          "reptile_http_requests_total{code=\"2xx\"}",
          "reptile_request_stage_duration_seconds_bucket{stage=\"fit\",le=\"+Inf\"}",
          "reptile_aggregate_cache_hits", "reptile_model_cache_fits",
          "reptile_sessions", "reptile_datasets",
          "reptile_shared_pool_queue_depth"}) {
      EXPECT_NE(body.find(needle), std::string::npos)
          << "missing " << needle << " in:\n" << body.substr(0, 2000);
    }
    ASSERT_NE(metrics->FindHeader("x-request-id"), nullptr);
    EXPECT_FALSE(metrics->FindHeader("x-request-id")->empty());
  }
  // With the front end's counters registered on the service (as serve_main
  // does), they are served as reptile_transport_* gauges.
  Stack wired;
  wired.WireTransport();
  HttpClient client2("127.0.0.1", wired.port);
  ASSERT_TRUE(client2.Get("/healthz").ok());
  Result<HttpClientResponse> metrics2 = client2.Get("/metricsz");
  ASSERT_TRUE(metrics2.ok()) << metrics2.status().ToString();
  EXPECT_NE(metrics2->body.find("reptile_transport_requests_dispatched"),
            std::string::npos)
      << metrics2->body.substr(0, 2000);
}

// The (family, TYPE) pairs of a Prometheus text exposition.
std::set<std::pair<std::string, std::string>> PromFamilies(const std::string& text) {
  std::set<std::pair<std::string, std::string>> families;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    constexpr std::string_view kType = "# TYPE ";
    if (line.rfind(kType, 0) != 0) continue;
    const size_t space = line.find(' ', kType.size());
    families.emplace(line.substr(kType.size(), space - kType.size()), line.substr(space + 1));
  }
  return families;
}

// Every number the server reports is one series on the service's registry.
// With the front end wired as serve_main wires it, /metricsz serves exactly
// these families — the names perfbench scrapes among them.
TEST(NetMetricsTest, ServedFamiliesAndTypesArePinned) {
  Stack stack;
  stack.WireTransport();
  Result<HttpClientResponse> metrics = HttpClient("127.0.0.1", stack.port).Get("/metricsz");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::set<std::pair<std::string, std::string>> expected = {
      {"reptile_aggregate_cache_bytes", "gauge"},
      {"reptile_aggregate_cache_entries", "gauge"},
      {"reptile_aggregate_cache_evictions", "gauge"},
      {"reptile_aggregate_cache_hits", "gauge"},
      {"reptile_aggregate_cache_misses", "gauge"},
      {"reptile_cache_invalidations_total", "counter"},
      {"reptile_dataset_head_version", "gauge"},
      {"reptile_dataset_versions", "gauge"},
      {"reptile_datasets", "gauge"},
      {"reptile_group_stats_cache_bytes", "gauge"},
      {"reptile_group_stats_cache_entries", "gauge"},
      {"reptile_group_stats_cache_evictions", "gauge"},
      {"reptile_group_stats_cache_hits", "gauge"},
      {"reptile_group_stats_cache_misses", "gauge"},
      {"reptile_http_request_duration_seconds", "histogram"},
      {"reptile_http_requests_total", "counter"},
      {"reptile_model_cache_bytes", "gauge"},
      {"reptile_model_cache_entries", "gauge"},
      {"reptile_model_cache_evictions", "gauge"},
      {"reptile_model_cache_fits", "gauge"},
      {"reptile_model_cache_hits", "gauge"},
      {"reptile_model_cache_misses", "gauge"},
      {"reptile_request_stage_duration_seconds", "histogram"},
      {"reptile_sessions", "gauge"},
      {"reptile_sessions_evicted_total", "counter"},
      {"reptile_shared_pool_queue_depth", "gauge"},
      {"reptile_transport_connections_accepted", "gauge"},
      {"reptile_transport_open_connections", "gauge"},
      {"reptile_transport_overload_rejections", "gauge"},
      {"reptile_transport_queued_bytes", "gauge"},
      {"reptile_transport_requests_dispatched", "gauge"},
      {"reptile_transport_requests_rate_limited", "gauge"},
      {"reptile_transport_requests_shed", "gauge"},
      {"reptile_transport_slow_client_disconnects", "gauge"},
      {"reptile_versions_gc_total", "counter"},
  };
  EXPECT_EQ(PromFamilies(metrics->body), expected) << metrics->body;
}

// /healthz's "metrics" object is the same registry rendered as JSON: it holds
// exactly the families /metricsz renders, with the same values.
TEST(NetMetricsTest, HealthzEmbedsExactlyTheMetricszFamilies) {
  Stack stack;
  stack.WireTransport();
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> health = client.Get("/healthz");
  Result<HttpClientResponse> metrics = client.Get("/metricsz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  Result<JsonValue> parsed = ParseJson(health->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* embedded = parsed->Find("metrics");
  ASSERT_NE(embedded, nullptr);
  std::set<std::string> healthz_families, metricsz_families;
  for (const auto& [name, series] : embedded->object_items()) healthz_families.insert(name);
  for (const auto& [name, type] : PromFamilies(metrics->body)) metricsz_families.insert(name);
  EXPECT_EQ(healthz_families, metricsz_families);
  EXPECT_EQ(healthz_families.size(), 35u);
  for (const char* family : {"reptile_datasets", "reptile_sessions", "reptile_versions_gc_total",
                             "reptile_transport_open_connections"}) {
    EXPECT_NE(metrics->body.find("\n" + std::string(family) + " " +
                                 std::to_string(testutil::HealthzMetric(health->body, family)) +
                                 "\n"),
              std::string::npos)
        << family;
  }
}

// A saturation sweep: 1, 4 and 16 concurrent keep-alive clients of 24
// recommends each over the stack's 2 workers, every response a 200 whose
// body is the in-process bytes.
TEST(NetDifferentialTest, ConcurrentClientsSeeByteIdenticalBodies) {
  Stack reactor;

  // Reference bytes, computed serially in process first.
  std::vector<std::string> expected;
  {
    InProcess reference;
    for (int y = 0; y < kYears; ++y) {
      HttpResponse r = reference.Call(
          {"recommend", "POST", "/v1/recommend", RecommendBody(R"("dataset":"panel")", y)});
      ASSERT_EQ(r.status, 200);
      expected.push_back(r.body);
    }
  }

  constexpr int kIterations = 24;
  int64_t sent = 0;
  for (int num_clients : {1, 4, 16}) {
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        HttpClient via_reactor("127.0.0.1", reactor.port);
        for (int i = 0; i < kIterations; ++i) {
          int year = (c + i) % kYears;
          std::string body = RecommendBody(R"("dataset":"panel")", year);
          Result<HttpClientResponse> rr = via_reactor.Post("/v1/recommend", body);
          if (!rr.ok() || rr->status != 200) {
            failures.fetch_add(1);
            continue;
          }
          if (rr->body != expected[year]) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << num_clients << " clients";
    EXPECT_EQ(mismatches.load(), 0) << num_clients << " clients";
    sent += num_clients * kIterations;
  }
  EXPECT_GE(reactor.server->requests_dispatched(), sent);
}

TEST(NetDifferentialTest, PipelinedRequestsAnsweredInOrder) {
  Stack stack;
  const std::string two_gets =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  HttpClient client("127.0.0.1", stack.port);
  Result<std::string> raw = client.SendRaw(two_gets);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  // Two complete 200 responses, back to back.
  size_t first = raw->find("HTTP/1.1 200 OK");
  ASSERT_NE(first, std::string::npos);
  size_t second = raw->find("HTTP/1.1 200 OK", first + 1);
  ASSERT_NE(second, std::string::npos);
}

// HTTP/1.0 defaults to closing the connection: the response is framed by
// Content-Length, says "Connection: close", and carries the in-process
// bytes.
TEST(NetDifferentialTest, Http10ClientGetsContentLengthBodyAndClose) {
  Stack stack;
  const WireCall batch = {"batch", "POST", "/v1/recommend_batch",
                          BatchBody(R"("dataset":"panel")")};
  HttpResponse reference = InProcess().Call(batch);
  ASSERT_EQ(reference.status, 200);

  std::string request = "POST /v1/recommend_batch HTTP/1.0\r\nHost: x\r\n"
                        "Content-Length: " +
                        std::to_string(batch.body.size()) + "\r\n\r\n" + batch.body;
  HttpClient client("127.0.0.1", stack.port);
  Result<std::string> raw = client.SendRaw(request);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const size_t head_end = raw->find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << *raw;
  const std::string head = raw->substr(0, head_end + 2);
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << head;
  EXPECT_NE(head.find("\r\nContent-Length: " + std::to_string(reference.body.size()) + "\r\n"),
            std::string::npos)
      << head;
  EXPECT_NE(head.find("\r\nConnection: close\r\n"), std::string::npos) << head;
  EXPECT_EQ(head.find("Transfer-Encoding"), std::string::npos) << head;
  EXPECT_EQ(raw->substr(head_end + 4), reference.body);
}

// ---- Client ----------------------------------------------------------------

// HttpClient reads only Content-Length framing. A response that carries a
// Transfer-Encoding — here a well-formed chunked body — is a kParseError,
// and the client drops the connection: the next request needs a new one.
TEST(NetClientTest, TransferEncodedResponseIsAParseErrorAndDropsTheConnection) {
  ReactorServerOptions options;
  options.num_threads = 1;
  ReactorServer server(std::move(options), [](const HttpRequest& request) {
    if (request.path != "/chunked") return HttpResponse::Json(200, "{}");
    HttpResponse response = HttpResponse::Json(200, "2\r\n{}\r\n0\r\n\r\n");
    response.extra_headers.emplace_back("Transfer-Encoding", "chunked");
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  Result<HttpClientResponse> refused = client.Get("/chunked");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kParseError) << refused.status().ToString();
  Result<HttpClientResponse> next = client.Get("/plain");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status, 200);
  EXPECT_EQ(next->body, "{}");
  EXPECT_EQ(server.connections_accepted(), 2);
  server.Stop();
}

// ---- Auth ------------------------------------------------------------------

// A concrete path for a route pattern: its "{...}" segment becomes `param`.
std::string PathFor(std::string pattern, const std::string& param) {
  const size_t open = pattern.find('{');
  if (open != std::string::npos) pattern.replace(open, pattern.find('}') + 1 - open, param);
  return pattern;
}

bool HasChallenge(const HttpResponse& response) {
  for (const auto& [name, value] : response.extra_headers) {
    if (name == "WWW-Authenticate" && value == "Bearer") return true;
  }
  return false;
}

// Every service option that enables a route is on, so the loops below see
// the whole table.
ServiceOptions EveryRouteOn(std::string auth_token) {
  ServiceOptions options;
  options.auth_token = std::move(auth_token);
  options.debug_request_ring = 4;
  return options;
}

TEST(NetAuthTest, BearerTokenGatesMutatingRoutesOnly) {
  ReptileService service(EveryRouteOn("tok-123"));
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());

  const std::string commit = R"({"dataset":"panel","hierarchy":"geo"})";

  // Every gated route of the table, without a token: 401, standard
  // envelope, WWW-Authenticate challenge. No other route answers 401 (the
  // gated ones are refused before they can change anything).
  int gated = 0;
  for (const ReptileService::Route& route : ReptileService::Routes()) {
    const std::string target = PathFor(route.pattern, "panel");
    HttpResponse response = service.Handle(MakeRequest(route.method, target, "{}"));
    if (!route.gated) {
      EXPECT_NE(response.status, 401) << route.method << " " << target;
      continue;
    }
    ++gated;
    EXPECT_EQ(response.status, 401) << route.method << " " << target;
    EXPECT_NE(response.body.find("\"code\":\"UNAUTHENTICATED\""), std::string::npos);
    EXPECT_NE(response.body.find("\"http\":401"), std::string::npos);
    EXPECT_TRUE(HasChallenge(response)) << route.method << " " << target;
  }
  // Dataset create, delete, snapshot and row append; session create and
  // delete; commit; the debug ring.
  EXPECT_EQ(gated, 8);
  HttpResponse wrong = service.Handle(MakeRequest(
      "POST", "/v1/commit", commit, {{"authorization", "Bearer wrong"}}));
  EXPECT_EQ(wrong.status, 401);
  HttpResponse scheme_only = service.Handle(MakeRequest(
      "POST", "/v1/commit", commit, {{"authorization", "tok-123"}}));
  EXPECT_EQ(scheme_only.status, 401);

  // Reads and /healthz stay open (checked before any commit narrows the
  // default session's drill-down frontier).
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/healthz")).status, 200);
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/v1/datasets")).status, 200);
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/v1/sessions")).status, 200);
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/recommend",
                                    RecommendBody(R"("dataset":"panel")", 0)))
                .status,
            200);

  // The right token unlocks the route (case-insensitive scheme).
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/commit", commit,
                                    {{"authorization", "Bearer tok-123"}}))
                .status,
            200);
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/commit", commit,
                                    {{"authorization", "bearer tok-123"}}))
                .status,
            200);

  // Streamed uploads are gated too: the sink rejects the body outright.
  int streamed = 0;
  for (const ReptileService::Route& route : ReptileService::Routes()) {
    if (route.stream_csv == nullptr) continue;
    ++streamed;
    HttpRequest upload = MakeRequest(route.method, PathFor(route.pattern, "panel"),
                                     std::string(), {{"content-type", "text/csv"}});
    std::unique_ptr<HttpBodySink> sink = service.StartStreamingBody(upload);
    ASSERT_NE(sink, nullptr) << route.pattern;
    EXPECT_FALSE(sink->Append("d\n"));
    HttpResponse denied = sink->Finish(false);
    EXPECT_EQ(denied.status, 401) << route.pattern;
    EXPECT_TRUE(HasChallenge(denied)) << route.pattern;
  }
  EXPECT_EQ(streamed, 2);  // dataset upload and row append
}

// Each route pattern sent a method it does not accept answers 405 with the
// METHOD_NOT_ALLOWED envelope and an Allow header listing its methods — with
// auth configured too, since a wrong method matches no gated route.
TEST(NetAuthTest, WrongMethodGets405WithTheAllowList) {
  ReptileService service(EveryRouteOn("tok-123"));
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  const std::map<std::string, std::string> kAllow = {
      {"/healthz", "GET"},
      {"/metricsz", "GET"},
      {"/v1/debug/requests", "GET"},
      {"/v1/datasets", "GET, POST"},
      {"/v1/datasets/{name}/snapshot", "POST"},
      {"/v1/datasets/{name}/rows", "POST"},
      {"/v1/datasets/{name}", "DELETE"},
      {"/v1/sessions", "GET, POST"},
      {"/v1/sessions/{id}", "GET, DELETE"},
      {"/v1/recommend", "POST"},
      {"/v1/recommend_batch", "POST"},
      {"/v1/view", "POST"},
      {"/v1/commit", "POST"},
  };
  std::set<std::string> patterns;
  for (const ReptileService::Route& route : ReptileService::Routes()) {
    patterns.insert(route.pattern);
  }
  ASSERT_EQ(patterns.size(), kAllow.size());
  for (const std::string& pattern : patterns) {
    auto allow = kAllow.find(pattern);
    ASSERT_NE(allow, kAllow.end()) << pattern;
    // PUT is no route's method; one the pattern lacks (DELETE or POST)
    // must be refused the same way.
    const std::string other = allow->second.find("DELETE") == std::string::npos ? "DELETE"
                              : allow->second.find("POST") == std::string::npos ? "POST"
                                                                                : "GET";
    for (const std::string& method : {std::string("PUT"), other}) {
      HttpResponse response =
          service.Handle(MakeRequest(method, PathFor(pattern, "panel"), "{}"));
      EXPECT_EQ(response.status, 405) << method << " " << pattern;
      EXPECT_NE(response.body.find("\"code\":\"METHOD_NOT_ALLOWED\""), std::string::npos);
      std::string header;
      for (const auto& [name, value] : response.extra_headers) {
        if (name == "Allow") header = value;
      }
      EXPECT_EQ(header, allow->second) << method << " " << pattern;
    }
  }
}

TEST(NetAuthTest, TokenlessServiceAcceptsEverything) {
  ReptileService service;  // no auth_token
  ASSERT_TRUE(service.AddDataset("panel", MakePanel(), {"time"}).ok());
  EXPECT_EQ(service
                .Handle(MakeRequest("POST", "/v1/commit",
                                    R"({"dataset":"panel","hierarchy":"geo"})"))
                .status,
            200);
}

TEST(NetAuthTest, AuthEnforcedOnTheWire) {
  ServiceOptions options;
  options.auth_token = "wire-tok";
  Stack stack(options);
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> denied =
      client.Post("/v1/commit", R"({"dataset":"panel","hierarchy":"geo"})");
  ASSERT_TRUE(denied.ok()) << denied.status().ToString();
  EXPECT_EQ(denied->status, 401);
  client.SetHeader("Authorization", "Bearer wire-tok");
  Result<HttpClientResponse> allowed =
      client.Post("/v1/commit", R"({"dataset":"panel","hierarchy":"geo"})");
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(allowed->status, 200);
  // Streamed upload without the token: 401 through the rejecting sink.
  client.SetHeader("Authorization", "");
  Result<HttpClientResponse> upload = client.Post(
      "/v1/datasets?name=n&dimensions=d,y&measures=m", kUploadCsv, "text/csv");
  ASSERT_TRUE(upload.ok()) << upload.status().ToString();
  EXPECT_EQ(upload->status, 401);
}

// ---- Hostile clients -------------------------------------------------------

TEST(NetHostileTest, SlowLorisHeaderTrickleGets408) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_seconds = 1;
  options.tick_interval_ms = 25;
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  // A few header bytes, then silence: the request never completes, but the
  // connection is not idle-empty either — the slow-loris pattern.
  ASSERT_TRUE(socket.Send("GET /healthz HTT"));
  std::string response = socket.ReadUntilClosed(5000);
  EXPECT_NE(response.find("HTTP/1.1 408 Request Timeout"), std::string::npos) << response;
  server.Stop();
}

TEST(NetHostileTest, ByteFreeIdleConnectionIsClosedSilently) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.idle_timeout_seconds = 1;
  options.tick_interval_ms = 25;
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  std::string bytes = socket.ReadUntilClosed(5000);
  EXPECT_TRUE(bytes.empty()) << bytes;  // no 408 for a connection that sent nothing
  server.Stop();
}

TEST(NetHostileTest, MidBodyDisconnectLeavesServerHealthy) {
  Stack stack;
  {
    RawSocket buffered(stack.port);
    ASSERT_TRUE(buffered.ok());
    ASSERT_TRUE(buffered.Send("POST /v1/recommend HTTP/1.1\r\nHost: x\r\n"
                              "Content-Length: 100000\r\n\r\n{\"partial"));
    buffered.Close();  // vanish mid-body
  }
  {
    RawSocket streamed(stack.port);
    ASSERT_TRUE(streamed.ok());
    ASSERT_TRUE(streamed.Send(
        "POST /v1/datasets?name=gone&dimensions=d HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: text/csv\r\nContent-Length: 100000\r\n\r\nd\nrow1\n"));
    streamed.Close();  // sink must be destroyed without Finish
  }
  // The server keeps serving, and the half-uploaded dataset never appeared.
  HttpClient client("127.0.0.1", stack.port);
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (stack.server->open_connections() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Result<HttpClientResponse> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  Result<HttpClientResponse> sessions = client.Get("/v1/sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->body.find("gone"), std::string::npos);
}

TEST(NetHostileTest, StalledReaderOnLargeResponseIsDisconnected) {
  // A handler that returns a 16 MiB body — far beyond socket buffering — to
  // a client that never reads: the stall timer must cut the connection off
  // and release its queued bytes instead of holding them forever.
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.write_stall_seconds = 0.5;
  ReactorServer server(std::move(options), [](const HttpRequest&) {
    return HttpResponse::Json(200, std::string(16 * 1024 * 1024, 'x'));
  });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.Send("GET /big HTTP/1.1\r\nHost: x\r\n\r\n"));
  // Do not read. The server must give up within the stall window; the
  // disconnect counts before the loop thread releases the queue, so wait for
  // both.
  int64_t peak_queued = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.slow_client_disconnects() == 0 || server.queued_bytes() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    peak_queued = std::max(peak_queued, server.queued_bytes());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(peak_queued, 0);  // the unsent part of the body sat in the queue
  EXPECT_GE(server.slow_client_disconnects(), 1);
  EXPECT_EQ(server.queued_bytes(), 0);
  server.Stop();
}

TEST(NetHostileTest, OversizedStreamedUploadRejectedWithoutBuffering) {
  std::atomic<int64_t> bytes_fed{0};
  class CountingSink : public HttpBodySink {
   public:
    explicit CountingSink(std::atomic<int64_t>* fed) : fed_(fed) {}
    bool Append(std::string_view chunk) override {
      fed_->fetch_add(static_cast<int64_t>(chunk.size()));
      return true;
    }
    HttpResponse Finish(bool) override { return HttpResponse::Json(200, "{}"); }

   private:
    std::atomic<int64_t>* fed_;
  };

  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_stream_body_bytes = 1024;
  options.stream_factory = [&bytes_fed](const HttpRequest&) {
    return std::make_unique<CountingSink>(&bytes_fed);
  };
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  // Declare a 10 MB body but send none of it: the declared length alone must
  // trigger the 413 — no buffering, no draining of megabytes.
  ASSERT_TRUE(socket.Send("POST /upload HTTP/1.1\r\nHost: x\r\n"
                          "Content-Length: 10000000\r\n\r\n"));
  std::string response = socket.ReadUntilClosed(5000);
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  EXPECT_EQ(bytes_fed.load(), 0);  // the sink never saw a byte
  server.Stop();
}

// ---- Capacity --------------------------------------------------------------

TEST(NetCapacityTest, Holds256IdleKeepAliveConnectionsWithFixedThreads) {
  Stack stack;  // 1 loop thread + 2 workers, regardless of load

  int threads_before = ProcessThreadCount();
  ASSERT_GT(threads_before, 0);

  constexpr int kConnections = 256;
  std::vector<RawSocket> sockets;
  sockets.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    sockets.emplace_back(stack.port);
    ASSERT_TRUE(sockets.back().ok()) << "connection " << i;
    if (i % 32 == 0) {
      // Prove a sampling of them actually speak HTTP and stay open after.
      ASSERT_TRUE(sockets.back().Send("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
      std::string response;
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (response.find("\"status\":\"ok\"") == std::string::npos &&
             std::chrono::steady_clock::now() < deadline) {
        response += sockets.back().ReadUntilClosed(100);
      }
      ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    }
  }
  // All 256 are open server-side...
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stack.server->open_connections() < kConnections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stack.server->open_connections(), kConnections);
  // ...and the thread count did not move: idle connections are state, not
  // threads.
  EXPECT_EQ(ProcessThreadCount(), threads_before);

  // A new connection is still served with 256 idle siblings, a recommend
  // included: it answers the in-process bytes.
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  const WireCall recommend = {"recommend", "POST", "/v1/recommend",
                              RecommendBody(R"("dataset":"panel")", 0)};
  Result<HttpClientResponse> probe = client.Post(recommend.path, recommend.body);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->status, 200);
  EXPECT_EQ(probe->body, InProcess().Call(recommend).body);
}

TEST(NetCapacityTest, ConnectionsPastTheCapGet503) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_connections = 4;
  ReactorServer server(std::move(options),
                       [](const HttpRequest&) { return HttpResponse::Json(200, "{}"); });
  ASSERT_TRUE(server.Start().ok());

  std::vector<RawSocket> held;
  for (int i = 0; i < 4; ++i) {
    held.emplace_back(server.port());
    ASSERT_TRUE(held.back().ok());
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.open_connections() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.open_connections(), 4);

  RawSocket extra(server.port());
  ASSERT_TRUE(extra.ok());
  std::string response = extra.ReadUntilClosed(5000);
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  EXPECT_TRUE(extra.WaitForEof(2000));
  EXPECT_GE(server.overload_rejections(), 1);
  server.Stop();
}

TEST(NetCapacityTest, StopFlushesInFlightResponses) {
  Stack stack;
  HttpClient client("127.0.0.1", stack.port);
  Result<HttpClientResponse> warm = client.Get("/healthz");
  ASSERT_TRUE(warm.ok());
  stack.server->Stop();
  // After Stop() the port no longer accepts (or resets immediately).
  Result<HttpClientResponse> after = HttpClient("127.0.0.1", stack.port).Get("/healthz");
  EXPECT_FALSE(after.ok());
}

// ---- Streaming building blocks --------------------------------------------

std::string TableToString(const Table& table) {
  std::string out;
  for (int c = 0; c < table.num_columns(); ++c) {
    out += table.column_name(c);
    out += table.is_dimension(c) ? "[dim]" : "[measure]";
    out += ';';
  }
  out += '\n';
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (table.is_dimension(c)) {
        out += table.dict(c).name(table.dim_codes(c)[row]);
      } else {
        out += std::to_string(table.measure(c)[row]);
      }
      out += ';';
    }
    out += '\n';
  }
  return out;
}

TEST(CsvStreamTest, AnyChunkSplitParsesIdentically) {
  CsvSpec spec;
  spec.dimension_columns = {"d", "y"};
  spec.measure_columns = {"m"};
  const std::string text(kUploadCsv);

  Result<Table> whole = LoadCsvText(text, spec);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  const std::string expected = TableToString(*whole);

  for (size_t chunk_size : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64}}) {
    CsvStreamParser parser(spec, "inline csv");
    for (size_t pos = 0; pos < text.size(); pos += chunk_size) {
      ASSERT_TRUE(parser.Feed(std::string_view(text).substr(pos, chunk_size)));
    }
    Result<Table> table = parser.Finish();
    ASSERT_TRUE(table.ok()) << "chunk=" << chunk_size << ": " << table.status().ToString();
    EXPECT_EQ(TableToString(*table), expected) << "chunk=" << chunk_size;
  }
}

TEST(CsvStreamTest, ErrorsAreIdenticalAcrossSplitsAndSticky) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  const std::string bad = "d,m\nd0,1\nd1,oops\nd2,3\n";

  Result<Table> whole = LoadCsvText(bad, spec);
  ASSERT_FALSE(whole.ok());

  CsvStreamParser parser(spec, "inline csv");
  bool fed_ok = true;
  for (char c : bad) {
    if (!parser.Feed(std::string_view(&c, 1))) {
      fed_ok = false;
      break;
    }
  }
  EXPECT_FALSE(fed_ok);  // the parse failed mid-stream and stayed failed
  EXPECT_FALSE(parser.Feed("more\n"));
  Result<Table> streamed = parser.Finish();
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().ToString(), whole.status().ToString());
  EXPECT_NE(streamed.status().message().find("row 2"), std::string::npos);
}

// strtod accepts these; a measure must be finite, so each is the parser's
// row- and column-naming ParseError however the bytes arrive.
TEST(CsvStreamTest, NonFiniteMeasuresAreParseErrorsAcrossSplits) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  for (const char* literal : {"nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"}) {
    const std::string text = std::string("d,m\nd0,1\nd1,") + literal + "\nd2,3\n";
    Result<Table> whole = LoadCsvText(text, spec);
    ASSERT_FALSE(whole.ok()) << literal;
    EXPECT_EQ(whole.status().code(), StatusCode::kParseError) << literal;
    EXPECT_NE(whole.status().message().find("row 2, column 'm'"), std::string::npos)
        << whole.status().ToString();
    for (size_t chunk_size : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64}}) {
      CsvStreamParser parser(spec, "inline csv");
      for (size_t pos = 0; pos < text.size(); pos += chunk_size) {
        if (!parser.Feed(std::string_view(text).substr(pos, chunk_size))) break;
      }
      Result<Table> streamed = parser.Finish();
      ASSERT_FALSE(streamed.ok()) << literal << " chunk=" << chunk_size;
      EXPECT_EQ(streamed.status().ToString(), whole.status().ToString())
          << literal << " chunk=" << chunk_size;
    }
  }
  // Large finite values still parse.
  EXPECT_TRUE(LoadCsvText("d,m\nd0,1e308\nd1,-1e308\n", spec).ok());
}

TEST(CsvStreamTest, FinishFlushesUnterminatedTrailingLine) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  CsvStreamParser parser(spec, "inline csv");
  ASSERT_TRUE(parser.Feed("d,m\nd0,1\nd1,2"));  // no trailing newline
  Result<Table> table = parser.Finish();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(parser.rows_parsed(), 2u);
}

TEST(CsvStreamTest, EmptyInputReportsMissingHeader) {
  CsvSpec spec;
  CsvStreamParser parser(spec, "uploaded csv");
  Result<Table> table = parser.Finish();
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("is empty (expected a header row)"),
            std::string::npos);
}

TEST(CsvStreamTest, EdgeFramingIdenticalAcrossBufferedAndChunkedFeeds) {
  CsvSpec spec;
  spec.dimension_columns = {"d"};
  spec.measure_columns = {"m"};
  // Every framing edge at once: a UTF-8 BOM before the header, CRLF and LF
  // line endings mixed in one file, and a final row with no trailing newline.
  const std::string text = "\xEF\xBB\xBF" "d,m\r\nd0,1\nd1,2\r\nd2,3";

  Result<Table> whole = LoadCsvText(text, spec);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->num_rows(), 3u);
  // The BOM did not glue onto the first header name.
  EXPECT_EQ(whole->column_name(0), "d");
  EXPECT_EQ(whole->dict(0).name(whole->dim_codes(0)[0]), "d0");
  const std::string expected = TableToString(*whole);

  // Chunk-split anywhere — including inside the BOM and inside "\r\n".
  for (size_t chunk_size = 1; chunk_size <= text.size(); ++chunk_size) {
    CsvStreamParser parser(spec, "inline csv");
    for (size_t pos = 0; pos < text.size(); pos += chunk_size) {
      ASSERT_TRUE(parser.Feed(std::string_view(text).substr(pos, chunk_size)));
    }
    Result<Table> table = parser.Finish();
    ASSERT_TRUE(table.ok()) << "chunk=" << chunk_size << ": " << table.status().ToString();
    EXPECT_EQ(TableToString(*table), expected) << "chunk=" << chunk_size;
  }
}

// ---- Snapshot routes (differential) ----------------------------------------

// POST /v1/datasets/{name}/snapshot then create-from-snapshot over the wire:
// the restored dataset answers byte-identically to the original and —
// because the snapshot carries the fitted-model cache — without a single
// new fit.
TEST(NetDifferentialTest, SnapshotRestartByteIdenticalAndWarm) {
  auto model_fits = [](HttpClient& client) {
    Result<HttpClientResponse> health = client.Get("/healthz");
    EXPECT_TRUE(health.ok());
    return testutil::HealthzMetric(health->body, "reptile_model_cache_fits");
  };

  ServiceOptions service_options;
  service_options.dataset_path_root = ::testing::TempDir();
  Stack stack(service_options);
  HttpClient client("127.0.0.1", stack.port);
  const std::string batch_body = BatchBody(R"("dataset":"panel")");
  const std::string snap_name = "restart.snap";

  // Warm the panel (aggregates + fits), then snapshot it.
  Result<HttpClientResponse> warm = client.Post("/v1/recommend_batch", batch_body);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->status, 200);
  Result<HttpClientResponse> saved = client.Post(
      "/v1/datasets/panel/snapshot", R"({"path":")" + snap_name + R"("})");
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->status, 201) << saved->body;
  EXPECT_NE(saved->body.find("\"dataset\":\"panel\""), std::string::npos) << saved->body;
  EXPECT_NE(saved->body.find("\"path\":\"" + snap_name + "\""), std::string::npos);

  // Restore under a new name, with the default session committed to the
  // same drill state as the panel's.
  Result<HttpClientResponse> restored = client.Post(
      "/v1/datasets", R"({"name":"restored","snapshot":")" + snap_name +
                          R"(","commits":["time"]})");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->status, 201) << restored->body;
  EXPECT_NE(restored->body.find("\"dataset\":\"restored\""), std::string::npos)
      << restored->body;

  // The restored dataset answers byte-identically with zero new fits.
  int64_t fits_before = model_fits(client);
  EXPECT_GT(fits_before, 0);  // the panel's warm-up fits are on the sum
  Result<HttpClientResponse> replay =
      client.Post("/v1/recommend_batch", BatchBody(R"("dataset":"restored")"));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->status, 200);
  EXPECT_EQ(replay->body, warm->body);
  EXPECT_EQ(model_fits(client), fits_before)
      << "restored dataset trained models despite a warm snapshot";
}

// ---- Keep-alive request caps -----------------------------------------------

// With max_requests_per_connection = N, response N carries Connection: close
// and the socket is cleanly closed: request N+1 on the same connection gets
// EOF, not a hang (clients reconnect): 257 pipelined requests against a cap
// of 256.
TEST(NetKeepAliveLimitTest, Request257GetsCleanClose) {
  constexpr int kCap = 256;
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_requests_per_connection = kCap;
  ReactorServer server(std::move(options), [](const HttpRequest&) {
    return HttpResponse::Json(200, "{\"pong\":true}");
  });
  ASSERT_TRUE(server.Start().ok());

  std::string pipelined;
  for (int i = 0; i < kCap + 1; ++i) {
    pipelined += "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.Send(pipelined));
  std::string raw = socket.ReadUntilClosed(10000);

  // Exactly kCap responses: the 257th request was never answered.
  size_t responses = 0;
  for (size_t pos = raw.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = raw.find("HTTP/1.1 200", pos + 1)) {
    ++responses;
  }
  EXPECT_EQ(responses, static_cast<size_t>(kCap));
  // The final response announced the close; none before it did.
  size_t close_header = raw.find("Connection: close");
  ASSERT_NE(close_header, std::string::npos);
  EXPECT_EQ(raw.find("Connection: close", close_header + 1), std::string::npos);
  EXPECT_GT(close_header, raw.rfind("HTTP/1.1 200"));
  // And the server really closed: EOF, not silence.
  EXPECT_TRUE(socket.WaitForEof(5000));
  server.Stop();
}

// A cap of 1 degenerates to Connection: close on every response.
TEST(NetKeepAliveLimitTest, CapOfOneClosesAfterEveryResponse) {
  ReactorServerOptions options;
  options.num_threads = 1;
  options.tick_interval_ms = 25;
  options.max_requests_per_connection = 1;
  ReactorServer server(std::move(options), [](const HttpRequest&) {
    return HttpResponse::Json(200, "{}");
  });
  ASSERT_TRUE(server.Start().ok());

  RawSocket socket(server.port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.Send("GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
                          "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string raw = socket.ReadUntilClosed(5000);
  EXPECT_NE(raw.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(raw.find("HTTP/1.1 200", raw.find("HTTP/1.1 200") + 1), std::string::npos);
  EXPECT_NE(raw.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(socket.WaitForEof(2000));
  server.Stop();
}

}  // namespace
}  // namespace reptile
